/**
 * @file
 * Experiment COLL: host-driven vs NIC-offloaded collectives.
 *
 * The same Communicator API runs on two backends (DESIGN.md section
 * 15): Host composes the paper's primitives in software (eager-update
 * broadcast pages, remote fetch&add reductions, sense-reversing
 * barriers — the CPU drives and polls every step), Nic writes one
 * descriptor and blocks on a single register read while the HIB
 * collective engine runs the combine/fan-out tree NIC-to-NIC.
 *
 * This bench sweeps barrier, sum-reduce and an 8-word broadcast over a
 * whole-cluster communicator at 64/256/1024 nodes on the 2D-torus,
 * 3D-torus and fat-tree fabrics, reporting the mean per-member
 * operation latency from the lifecycle tracer (CpuIssue ->
 * Completion) over every operation: a run whose tracer evicted an op
 * fails the bench.  Like bench_n1_scaling, the fat-tree stops at 256
 * nodes: at 4 nodes/switch the two-level fabric's spines become
 * 256-port switches, and their per-hop VOQ state makes the simulation
 * cost quadratic while the fabric itself is already bisection-bound.
 *
 * Shape checks (the offload claim itself):
 *  - at every tier >= 256 nodes the NIC backend beats the host backend
 *    on barrier and reduce on every fabric — the host path serializes
 *    O(N) atomics and polls at one home node, the engine combines up a
 *    tree;
 *  - the NIC latency grows like the tree depth, not the member count:
 *    nic(1024) <= 6 x nic(64) for barrier and reduce per fabric;
 *  - two same-seed runs hash identically per backend (determinism).
 *
 * Flags: --nodes=N   run only the N-node tier (CI smoke uses 64;
 *                    cross-tier shape checks then skip)
 *        --json[=p]  write the tg-bench-v1 document
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"

using namespace tg;

namespace {

constexpr int kIters = 4;             ///< timed rounds per operation
constexpr std::size_t kBcastWords = 8;

struct CollTimes
{
    double barrierUs = 0; ///< mean per-member barrier lifetime
    double reduceUs = 0;  ///< mean per-member rooted-reduce lifetime
    double bcastUs = 0;   ///< mean per-member 8-word broadcast lifetime
    bool drained = false;
    bool valuesOk = false; ///< every Result ok, every value correct
    std::uint64_t traceHash = 0;
    std::uint64_t evictedOps = 0; ///< tracer ops force-retired (must be 0)
};

double
meanUs(const std::vector<Tick> &lifetimes)
{
    if (lifetimes.empty())
        return 0;
    double sum = 0;
    for (const Tick t : lifetimes)
        sum += toUs(t);
    return sum / double(lifetimes.size());
}

CollTimes
run(net::TopologyKind kind, std::size_t nodes, CollectiveBackend backend)
{
    const ClusterSpec spec = ClusterSpec::forKind(kind, nodes, 4)
                                 .trace(true)
                                 .seed(11)
                                 .collectives(backend);
    Cluster cluster(spec);
    const std::size_t n_nodes = cluster.numNodes();

    // The means need every collective's lifetime, so the tracer must
    // hold every op the run begins.  Host completion polls are remote
    // reads whose number depends on timing, so no count fixed before the
    // run bounds them: lift both caps.  The open-op ring still grows
    // only to the ops actually begun (~141k at the 1024-node 3D torus).
    constexpr std::size_t kEveryOp = std::numeric_limits<std::size_t>::max();
    cluster.tracer().setOpenOpCap(kEveryOp);
    cluster.tracer().setLifetimeSampleCap(kEveryOp);

    std::vector<NodeId> members;
    for (NodeId n = 0; n < NodeId(n_nodes); ++n)
        members.push_back(n);
    Communicator &comm =
        cluster.communicator("all", members, kBcastWords);

    // Every node contributes rank+1: the reduce must see N(N+1)/2.
    const Word expect = Word(n_nodes) * Word(n_nodes + 1) / 2;
    bool ok = true;
    for (NodeId n = 0; n < NodeId(n_nodes); ++n) {
        cluster.spawn(n, [&, n](Ctx &ctx) -> Task<void> {
            for (int it = 0; it < kIters; ++it) {
                const Result<void> b = co_await comm.barrier(ctx);
                if (!b.ok())
                    ok = false;
            }
            for (int it = 0; it < kIters; ++it) {
                const Result<ReduceOut> r =
                    co_await comm.reduceSum(ctx, Word(n) + 1, /*root=*/0);
                if (!r.ok() ||
                    (r.value().atRoot && r.value().value != expect))
                    ok = false;
            }
            for (int it = 0; it < kIters; ++it) {
                std::vector<Word> io;
                if (n == 0) {
                    for (std::size_t w = 0; w < kBcastWords; ++w)
                        io.push_back(Word(it) * 100 + w);
                }
                const Result<void> r =
                    co_await comm.broadcast(ctx, io, /*root=*/0);
                if (!r.ok() || io.size() != kBcastWords)
                    ok = false;
            }
        });
    }
    cluster.run(500'000'000'000'000ULL);

    CollTimes t;
    t.drained = cluster.allDone();
    t.valuesOk = ok;
    t.barrierUs =
        meanUs(cluster.tracer().opLifetimes(trace::OpKind::CollBarrier));
    t.reduceUs =
        meanUs(cluster.tracer().opLifetimes(trace::OpKind::CollReduce));
    t.bcastUs =
        meanUs(cluster.tracer().opLifetimes(trace::OpKind::CollBcast));
    t.traceHash = cluster.traceHash();
    t.evictedOps = cluster.tracer().evictedOps();
    return t;
}

const char *
backendName(CollectiveBackend b)
{
    return b == CollectiveBackend::Host ? "host" : "nic";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("bench_collectives", argc, argv);
    std::size_t only_nodes = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--nodes=", 8) == 0)
            only_nodes = std::strtoul(argv[i] + 8, nullptr, 10);
    }

    std::printf("=== COLL: host vs NIC-offloaded collectives ===\n");
    std::printf("%d rounds/op, whole-cluster communicator, "
                "%zu-word broadcast\n\n",
                kIters, kBcastWords);

    const std::vector<std::size_t> sizes = {64, 256, 1024};
    const std::vector<std::pair<const char *, net::TopologyKind>> fabrics = {
        {"torus2d", net::TopologyKind::Torus2D},
        {"torus3d", net::TopologyKind::Torus3D},
        {"fattree", net::TopologyKind::FatTree},
    };
    const CollectiveBackend backends[] = {CollectiveBackend::Host,
                                          CollectiveBackend::Nic};

    // us[op][fabric][nodes][backend] for the shape checks.
    std::map<std::string,
             std::map<std::string, std::map<std::size_t,
                                            std::map<std::string, double>>>>
        us;

    ResultTable table({"topology", "nodes", "backend", "barrier us",
                       "reduce us", "bcast us", "drained", "values"});
    int failures = 0;
    for (const auto &[fname, kind] : fabrics) {
        for (const std::size_t nodes : sizes) {
            if (only_nodes && nodes != only_nodes)
                continue;
            // Two-level fat-tree stops at 256 (see the header comment).
            if (kind == net::TopologyKind::FatTree && nodes > 256)
                continue;
            for (const CollectiveBackend b : backends) {
                std::fprintf(stderr, "running %s n%zu %s...\n", fname,
                             nodes, backendName(b));
                const CollTimes t = run(kind, nodes, b);
                const std::string bname = backendName(b);
                table.addRow({fname, std::to_string(nodes), bname,
                              ResultTable::num(t.barrierUs, 2),
                              ResultTable::num(t.reduceUs, 2),
                              ResultTable::num(t.bcastUs, 2),
                              t.drained ? "yes" : "NO",
                              t.valuesOk ? "ok" : "BAD"});
                if (!t.drained || !t.valuesOk)
                    ++failures;
                // Evicted ops would make the means cover a truncated
                // subset, so the bench fails.
                if (t.evictedOps != 0) {
                    ++failures;
                    std::printf("check %s n%zu %s: tracer evicted %llu "
                                "ops  [FAIL]\n",
                                fname, nodes, bname.c_str(),
                                (unsigned long long)t.evictedOps);
                }
                us["barrier"][fname][nodes][bname] = t.barrierUs;
                us["reduce"][fname][nodes][bname] = t.reduceUs;
                us["bcast"][fname][nodes][bname] = t.bcastUs;
                const std::string tag =
                    std::string(fname) + ".n" + std::to_string(nodes);
                report.metric(tag + ".barrier." + bname + "_us",
                              t.barrierUs, "us");
                report.metric(tag + ".reduce." + bname + "_us",
                              t.reduceUs, "us");
                report.metric(tag + ".bcast." + bname + "_us", t.bcastUs,
                              "us");
            }
        }
    }
    table.print();
    std::printf("\n");

    // Offload claim: from 256 nodes up the descriptor path must beat
    // the software path on every fabric for barrier and reduce.
    int checks = 0;
    for (const std::string &op : {std::string("barrier"),
                                 std::string("reduce")}) {
        for (const auto &[fname, kind] : fabrics) {
            for (const std::size_t nodes : sizes) {
                if (nodes < 256 || (only_nodes && nodes != only_nodes))
                    continue;
                if (kind == net::TopologyKind::FatTree && nodes > 256)
                    continue;
                const double host = us[op][fname][nodes]["host"];
                const double nic = us[op][fname][nodes]["nic"];
                const bool pass = nic < host && nic > 0;
                ++checks;
                failures += pass ? 0 : 1;
                std::printf("check %-7s %-8s @%4zu: nic %9.2f < host "
                            "%9.2f us  (%.1fx)  [%s]\n",
                            op.c_str(), fname, nodes, nic, host,
                            nic > 0 ? host / nic : 0.0,
                            pass ? "PASS" : "FAIL");
            }
        }
    }

    // Tree-depth scaling: a 16x member count may cost the NIC backend
    // at most ~6x latency (log-like, not linear).  Only the tori reach
    // the 1024-node tier.
    if (!only_nodes) {
        for (const std::string &op : {std::string("barrier"),
                                     std::string("reduce")}) {
            for (const auto &[fname, kind] : fabrics) {
                if (kind == net::TopologyKind::FatTree)
                    continue;
                const double small = us[op][fname][64]["nic"];
                const double big = us[op][fname][1024]["nic"];
                const bool pass = small > 0 && big <= 6.0 * small;
                ++checks;
                failures += pass ? 0 : 1;
                std::printf("check %-7s %-8s nic 64->1024: %.2f -> %.2f "
                            "us (%.2fx <= 6x)  [%s]\n",
                            op.c_str(), fname, small, big,
                            small > 0 ? big / small : 0.0,
                            pass ? "PASS" : "FAIL");
            }
        }
    }

    // Determinism: same seed, same backend -> identical trace hash.
    {
        const std::size_t nodes = only_nodes ? only_nodes : 64;
        for (const CollectiveBackend b : backends) {
            const CollTimes a = run(net::TopologyKind::Torus2D, nodes, b);
            const CollTimes c = run(net::TopologyKind::Torus2D, nodes, b);
            const bool pass = a.traceHash == c.traceHash &&
                              a.traceHash != 0;
            ++checks;
            failures += pass ? 0 : 1;
            std::printf("check hash    %-4s same-seed @%zu: %016llx %s "
                        "%016llx  [%s]\n",
                        backendName(b), nodes,
                        (unsigned long long)a.traceHash,
                        pass ? "==" : "!=",
                        (unsigned long long)c.traceHash,
                        pass ? "PASS" : "FAIL");
        }
    }

    std::printf("\nshape check: %d/%d collective assertions hold\n",
                checks - failures, checks);
    report.write();
    return failures ? 1 : 0;
}
