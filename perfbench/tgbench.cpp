/**
 * @file
 * tgbench: one repetition of one benchmark workload, in its own process.
 *
 * The workload's inputs (every node's operation list: kind, target,
 * word, value, compute gap) are generated from --seed before the
 * cluster is built; the programs only replay those lists and never
 * draw from ctx.rng().  One invocation builds a fresh cluster through
 * the public API, runs it single-threaded, checks every output against
 * an oracle and prints one JSON object with
 *
 *  - wall-clock and CPU time of the set-up calls, of Cluster::run and
 *    of ~Cluster, the process's peak RSS, and the CPU time of a fixed
 *    calibration kernel run afterwards (see calibrationCpuS);
 *  - simulated results: makespan, per-class operation latency samples
 *    (timed by the program around each awaited call with Ctx::now()),
 *    and the section 3.2 anchor pass;
 *  - the determinism fingerprint: Cluster::traceHash() and every work
 *    counter Cluster::statsReport reads, summed over nodes;
 *  - the packet tracer's latency breakdown when the tracer is on.
 *
 * perfbench/run.py drives repetitions and aggregates them; see
 * perfbench/README.md for the workloads and metrics.
 *
 * Usage: tgbench --workload W --seed N [--scale full|tiny]
 *                [--tracer auto|on|off] [--spans FILE] [--corrupt]
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/owner_counter.hpp"

using namespace tg;

namespace {

// ---------------------------------------------------------------------
// Seeded input generation
// ---------------------------------------------------------------------

/** splitmix64: the benchmark's own input stream (independent of the
 *  simulator's RNG, so inputs are fixed before the cluster exists). */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : _s(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (_s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [lo, hi]. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

  private:
    std::uint64_t _s;
};

enum class OpKind : std::uint8_t
{
    Write,      ///< posted remote (or coherent) store
    Read,       ///< blocking remote load
    LocalRead,  ///< load of the node's own replica
    FetchAdd,   ///< remote fetch&add
};

/** One pre-generated operation of a node's list. */
struct Op
{
    OpKind kind = OpKind::Write;
    NodeId target = 0;     ///< node whose segment is addressed
    std::uint32_t word = 0;
    Word value = 0;        ///< value written / expected by the oracle
    Tick gap = 0;          ///< compute before the operation
};

/** Latency class an operation's sample is filed under.  Posted writes
 *  and local replica reads return at a fixed local cost; the classes
 *  from kRead on wait for the network and make up op_p50/op_p99. */
enum Class : std::size_t
{
    kWrite,
    kLocalRead,
    kRead,
    kAtomic,
    kBarrier,
    kReduce,
    kBcast,
    kNumClasses,
};

constexpr const char *kClassNames[kNumClasses] = {
    "write", "local_read", "read", "atomic", "barrier", "reduce", "bcast"};

// ---------------------------------------------------------------------
// Host-time spans (the benchmark's own tracing)
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** CPU time this process has used so far, in seconds. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * CPU time of a fixed reference workload that calls no library code, in
 * three parts of similar length: a dependent multiply chain (core-bound),
 * std::map churn over about 2 MB (branchy pointer code) and a pointer
 * chase through a 16 MB cycle (shared-cache latency).  On a shared host,
 * neighbours slow the whole core for minutes at a time; the kernel slows
 * with them, and run.py scales every host CPU time by it.
 */
double
calibrationCpuS()
{
    const double t0 = cpuNow();
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < 30'000'000; ++i)
        h = (h ^ i) * 0x9e3779b97f4a7c15ULL + (h >> 29);

    InputRng rng(0x5eed);
    std::map<std::uint64_t, std::uint64_t> tree;
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        tree[rng.below(1 << 16)] = i;
        tree.erase(rng.below(1 << 16));
    }

    // A full-period LCG step (Hull-Dobell) as the successor table: one
    // cycle through every slot, in an order no prefetcher follows.
    constexpr std::uint32_t kSlots = 1u << 22;
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i)
        next[i] = (i * 1664525u + 1013904223u) & (kSlots - 1);
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kSlots / 4; ++i)
        at = next[at];

    // Consume the results so the compiler keeps the work.
    volatile std::uint64_t sink = h + tree.size() + at;
    (void)sink;
    return cpuNow() - t0;
}

/** In-memory span log: name, start, end, parent and run id per span,
 *  written as Chrome trace_event JSON at exit when enabled. */
class SpanLog
{
  public:
    struct Rec
    {
        std::string name;
        double startS = 0;
        double endS = 0;
        int parent = -1;
    };

    explicit SpanLog(std::uint64_t run) : _run(run), _t0(Clock::now()) {}

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - _t0).count();
    }

    int
    open(const std::string &name)
    {
        _recs.push_back({name, now(), 0, _stack.empty() ? -1 : _stack.back()});
        _stack.push_back(int(_recs.size()) - 1);
        return _stack.back();
    }

    void
    close(int id)
    {
        _recs[std::size_t(id)].endS = now();
        _stack.pop_back();
    }

    /** Sum of the durations of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double s = 0;
        for (const Rec &r : _recs)
            if (r.name == name)
                s += r.endS - r.startS;
        return s;
    }

    void
    writeChrome(std::ostream &os, const std::string &workload,
                std::uint64_t seed, const std::string &breakdown) const
    {
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << _run
           << ",\"args\":{\"name\":\"tgbench " << workload << " run "
           << _run << "\"}}";
        char buf[256];
        for (std::size_t i = 0; i < _recs.size(); ++i) {
            const Rec &r = _recs[i];
            std::snprintf(buf, sizeof(buf),
                          ",\n{\"name\":\"%s\",\"cat\":\"tgbench\","
                          "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                          "\"pid\":%llu,\"tid\":0,\"args\":{\"id\":%zu,"
                          "\"parent\":%d,\"run\":%llu}}",
                          r.name.c_str(), r.startS * 1e6,
                          (r.endS - r.startS) * 1e6,
                          (unsigned long long)_run, i, r.parent,
                          (unsigned long long)_run);
            os << buf;
        }
        os << "\n],\"otherData\":{\"workload\":\"" << workload
           << "\",\"seed\":" << seed << ",\"run\":" << _run
           << ",\"breakdown\":" << (breakdown.empty() ? "null" : breakdown)
           << "}}\n";
    }

  private:
    std::uint64_t _run;
    Clock::time_point _t0;
    std::vector<Rec> _recs;
    std::vector<int> _stack;
};

/** RAII span scope. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name)
        : _log(log), _id(log.open(name))
    {
    }
    ~Scope() { _log.close(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &_log;
    int _id;
};

/** Wall-clock and CPU seconds spent in one phase of a repetition. */
struct HostTime
{
    double wallS = 0;
    double cpuS = 0;
};

/** Adds the wall-clock and CPU time of its scope to a HostTime. */
class Timed
{
  public:
    Timed(const SpanLog &log, HostTime &into)
        : _log(log), _into(into), _wall0(log.now()), _cpu0(cpuNow())
    {
    }
    ~Timed()
    {
        _into.wallS += _log.now() - _wall0;
        _into.cpuS += cpuNow() - _cpu0;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    const SpanLog &_log;
    HostTime &_into;
    double _wall0;
    double _cpu0;
};

// ---------------------------------------------------------------------
// Run bookkeeping shared by the workloads
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    bool tiny = false;
    int tracer = -1; ///< -1: the workload's default
    std::string spansPath;
    bool corrupt = false; ///< corrupt one expected value (self-test)
    std::uint64_t run = 0;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> why; ///< first few failure descriptions
    std::vector<std::uint32_t> lat[kNumClasses]; ///< ticks per sample
    Tick mainStart = 0;
    Tick lastFinish = 0;
    double anchorWriteUs = 0;
    double anchorReadUs = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (why.size() < 8)
            why.push_back(what);
    }

    void
    sample(Class c, Tick t)
    {
        lat[c].push_back(static_cast<std::uint32_t>(
            std::min<Tick>(t, 0xffffffffULL)));
    }

    void
    finish(Tick t)
    {
        lastFinish = std::max(lastFinish, t);
    }
};

constexpr Tick kRunLimit = 20'000'000'000ULL; ///< 20 s simulated

/**
 * The section 3.2 pass (bench_p1_basic_latency's method): node 1
 * streams remote writes at node 0 and fences, then issues blocking
 * reads one at a time, on an otherwise idle cluster.  Nodes 0 and 1
 * share a switch on every benchmark fabric.
 */
void
spawnAnchorPass(Cluster &c, Segment &seg, Outcome &out, int writes,
                int reads)
{
    c.spawn(1, [&seg, &out, writes, reads](Ctx &ctx) -> Task<void> {
        const Tick w0 = ctx.now();
        for (int i = 0; i < writes; ++i) {
            const Result<void> r =
                co_await ctx.write(seg.word(std::size_t(i) % 64), Word(i));
            if (!r.ok())
                out.fail("anchor write not ok");
            ++out.completed;
        }
        if (!(co_await ctx.fence()).ok())
            out.fail("anchor fence not ok");
        out.anchorWriteUs = toUs(ctx.now() - w0) / writes;
        Tick acc = 0;
        for (int i = 0; i < reads; ++i) {
            const std::size_t w = std::size_t(i) % 64;
            const Tick t0 = ctx.now();
            const Result<Word> r = co_await ctx.read(seg.word(w));
            acc += ctx.now() - t0;
            // The last write to word w was the largest i' < writes with
            // i' % 64 == w.
            const Word expect =
                Word(((writes - 1 - int(w)) / 64) * 64 + int(w));
            if (!r.ok() || r.value() != expect)
                out.fail("anchor read returned a wrong value");
            ++out.completed;
        }
        out.anchorReadUs = toUs(acc) / reads;
    });
    out.attempted += std::uint64_t(writes + reads);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What a workload's build step hands back to main(). */
struct Workload
{
    std::unique_ptr<Cluster> cluster;
    /** Oracle run after quiescence (functional peeks only). */
    std::function<void(Outcome &)> verify;
};

/** Per-workload state the programs reference; outlives the cluster. */
struct State
{
    std::vector<std::vector<Op>> ops; ///< per node
    std::vector<Segment *> segs;
    Segment *anchor = nullptr;
    Segment *counters = nullptr;
    Segment *shared = nullptr;
    Communicator *comm = nullptr;
    std::vector<std::vector<Word>> bcast; ///< root payload per round
    std::vector<std::vector<Tick>> skew;  ///< per node, per round
    std::size_t rounds = 0;
    std::vector<std::uint64_t> counterAdds; ///< per counter word
    std::vector<std::vector<Word>> counterOld;
};

std::size_t
anchorOps(const Options &o)
{
    return o.tiny ? 64 : 2000;
}

// --- fattree256-uniform ----------------------------------------------

/** Words each writer owns in every target segment. */
constexpr std::size_t kSlotsPerNode = 4;

void
genUniform(State &st, const Options &o)
{
    const std::size_t nodes = o.tiny ? 16 : 256;
    InputRng rng(o.seed * 0x100000001b3ULL + 1);
    const std::size_t per_node = o.tiny ? 40 : 320;
    st.ops.assign(nodes, {});
    // Last value each writer stored into each of its slots, per target:
    // reads check their own slot (read-your-writes over one path).
    std::vector<std::vector<Word>> shadow(
        nodes, std::vector<Word>(nodes * kSlotsPerNode, 0));
    for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t i = 0; i < per_node; ++i) {
            Op op;
            op.target = NodeId((n + 1 + rng.below(nodes - 1)) % nodes);
            op.word = std::uint32_t(n * kSlotsPerNode +
                                    rng.below(kSlotsPerNode));
            Word &last = shadow[n][std::size_t(op.target) * kSlotsPerNode +
                                   (op.word % kSlotsPerNode)];
            if (rng.below(10) == 0) {
                op.kind = OpKind::Read;
                op.value = last;
            } else {
                op.kind = OpKind::Write;
                op.value = (rng.next() | 1) & 0x7fffffffffffffffULL;
                last = op.value;
            }
            st.ops[n].push_back(op);
        }
    }
    if (o.corrupt) {
        // Self-test hook: expect a value the program never wrote.
        for (auto &ops : st.ops) {
            const auto rd =
                std::find_if(ops.begin(), ops.end(), [](const Op &op) {
                    return op.kind == OpKind::Read;
                });
            if (rd != ops.end()) {
                rd->value ^= 1;
                break;
            }
        }
    }
}

Workload
buildUniform(State &st, const Options &o, Outcome &out, SpanLog &log)
{
    const std::size_t nodes = st.ops.size();
    Workload w;
    {
        Scope s(log, "api.build");
        ClusterSpec spec =
            ClusterSpec::forKind(net::TopologyKind::FatTree, nodes, 4)
                .seed(o.seed)
                .trace(o.tracer != 0);
        w.cluster = std::make_unique<Cluster>(spec);
    }
    Cluster &c = *w.cluster;
    {
        Scope s(log, "api.alloc");
        const std::size_t bytes =
            std::max<std::size_t>(8192, nodes * kSlotsPerNode * 8);
        for (std::size_t n = 0; n < nodes; ++n)
            st.segs.push_back(&c.allocShared("seg" + std::to_string(n), bytes,
                                             NodeId(n)));
        st.anchor = &c.allocShared("anchor", 8192, 0);
    }
    {
        Scope s(log, "api.spawn");
        spawnAnchorPass(c, *st.anchor, out, int(anchorOps(o)),
                        int(anchorOps(o) / 2));
    }
    w.verify = [&st, nodes](Outcome &res) {
        // Every writer's last value per (target, slot) is at home.
        for (std::size_t n = 0; n < nodes; ++n) {
            std::map<std::pair<NodeId, std::uint32_t>, Word> last;
            for (const Op &op : st.ops[n])
                if (op.kind == OpKind::Write)
                    last[{op.target, op.word}] = op.value;
            for (const auto &[key, v] : last)
                if (st.segs[key.first]->peek(key.second) != v)
                    res.fail("final value differs from the last write");
        }
    };
    return w;
}

void
spawnUniform(Cluster &c, State &st, Outcome &out, const Options &)
{
    for (std::size_t n = 0; n < st.ops.size(); ++n) {
        c.spawn(NodeId(n), [&st, &out, n](Ctx &ctx) -> Task<void> {
            for (const Op &op : st.ops[n]) {
                const VAddr va = st.segs[op.target]->word(op.word);
                const Tick t0 = ctx.now();
                if (op.kind == OpKind::Write) {
                    const Result<void> r = co_await ctx.write(va, op.value);
                    out.sample(kWrite, ctx.now() - t0);
                    if (!r.ok())
                        out.fail("write not ok");
                } else {
                    const Result<Word> r = co_await ctx.read(va);
                    out.sample(kRead, ctx.now() - t0);
                    if (!r.ok() || r.value() != op.value)
                        out.fail("read returned a wrong value");
                }
                ++out.completed;
            }
            if (!(co_await ctx.fence()).ok())
                out.fail("fence not ok");
            out.finish(ctx.now());
        });
        out.attempted += st.ops[n].size();
    }
}

// --- torus3d256-hostcoll ---------------------------------------------

constexpr std::size_t kBcastWords = 8;
constexpr std::size_t kTables = 8;

Word
tableValue(std::size_t table, std::size_t word)
{
    return Word(table) << 32 | Word(word) << 8 | 0x5a;
}

void
genHostColl(State &st, const Options &o)
{
    const std::size_t nodes = o.tiny ? 32 : 256; // torus3d needs 2x2x2
    InputRng rng(o.seed * 0x100000001b3ULL + 2);
    st.rounds = o.tiny ? 4 : 16;
    st.bcast.assign(st.rounds, {});
    for (auto &words : st.bcast)
        for (std::size_t w = 0; w < kBcastWords; ++w)
            words.push_back(rng.next());
    st.skew.assign(nodes, {});
    st.ops.assign(nodes, {});
    for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t r = 0; r < st.rounds; ++r) {
            // Arrival skew before each round, and one blocking read of a
            // seeded word of a seeded table (a progress check on a peer).
            st.skew[n].push_back(rng.below(4000));
            Op op;
            op.kind = OpKind::Read;
            op.target = NodeId(rng.below(kTables));
            op.word = std::uint32_t(rng.below(1024));
            op.value = tableValue(op.target, op.word);
            st.ops[n].push_back(op);
        }
    }
}

Workload
buildHostColl(State &st, const Options &o, Outcome &out, SpanLog &log)
{
    const std::size_t nodes = st.ops.size();
    Workload w;
    {
        Scope s(log, "api.build");
        ClusterSpec spec =
            ClusterSpec::forKind(net::TopologyKind::Torus3D, nodes, 4)
                .seed(o.seed)
                .trace(o.tracer == 1)
                .collectives(CollectiveBackend::Host);
        w.cluster = std::make_unique<Cluster>(spec);
    }
    Cluster &c = *w.cluster;
    {
        Scope s(log, "api.alloc");
        // Tables homed on nodes spread over the fabric (not node 0, the
        // collectives' scratch home).
        for (std::size_t t = 0; t < kTables; ++t) {
            Segment &seg = c.allocShared("table" + std::to_string(t), 8192,
                                         NodeId((t * nodes) / kTables +
                                                nodes / (2 * kTables)));
            for (std::size_t i = 0; i < 1024; ++i)
                seg.poke(i, tableValue(t, i));
            st.segs.push_back(&seg);
        }
        st.anchor = &c.allocShared("anchor", 8192, 0);
    }
    {
        Scope s(log, "api.communicator");
        std::vector<NodeId> members;
        for (std::size_t n = 0; n < nodes; ++n)
            members.push_back(NodeId(n));
        st.comm = &c.communicator("all", members, kBcastWords);
    }
    {
        Scope s(log, "api.spawn");
        spawnAnchorPass(c, *st.anchor, out, int(anchorOps(o)),
                        int(anchorOps(o) / 2));
    }
    w.verify = [](Outcome &) {};
    return w;
}

void
spawnHostColl(Cluster &c, State &st, Outcome &out, const Options &o)
{
    const bool corrupt = o.corrupt;
    const std::size_t nodes = st.ops.size();
    const Word expect =
        Word(nodes) * Word(nodes + 1) / 2 + (corrupt ? 1 : 0);
    for (std::size_t n = 0; n < nodes; ++n) {
        c.spawn(NodeId(n), [&st, &out, n, expect](Ctx &ctx) -> Task<void> {
            Communicator &comm = *st.comm;
            for (std::size_t r = 0; r < st.rounds; ++r) {
                co_await ctx.compute(st.skew[n][r]);

                const Op &op = st.ops[n][r];
                Tick t0 = ctx.now();
                const Result<Word> rd =
                    co_await ctx.read(st.segs[op.target]->word(op.word));
                out.sample(kRead, ctx.now() - t0);
                if (!rd.ok() || rd.value() != op.value)
                    out.fail("table read returned a wrong value");
                ++out.completed;

                t0 = ctx.now();
                const Result<void> b = co_await comm.barrier(ctx);
                out.sample(kBarrier, ctx.now() - t0);
                if (!b.ok())
                    out.fail("barrier not ok");
                ++out.completed;

                t0 = ctx.now();
                const Result<ReduceOut> red =
                    co_await comm.reduceSum(ctx, Word(n) + 1, /*root=*/0);
                out.sample(kReduce, ctx.now() - t0);
                if (!red.ok() ||
                    red.value().atRoot != (n == 0) ||
                    (red.value().atRoot && red.value().value != expect))
                    out.fail("reduce sum differs from N(N+1)/2");
                ++out.completed;

                std::vector<Word> io;
                if (n == 0)
                    io = st.bcast[r];
                t0 = ctx.now();
                const Result<void> bc =
                    co_await comm.broadcast(ctx, io, /*root=*/0);
                out.sample(kBcast, ctx.now() - t0);
                if (!bc.ok() || io != st.bcast[r])
                    out.fail("broadcast words differ from the root's");
                ++out.completed;
            }
            out.finish(ctx.now());
        });
        out.attempted += 4 * st.rounds;
    }
}

// --- star16-coherent -------------------------------------------------

constexpr std::size_t kSharedWords = 128;
constexpr std::size_t kCounterWords = 4;

Word
coherentValue(std::size_t word, std::size_t node, std::size_t seq)
{
    return Word(word) << 40 | Word(node) << 32 | Word(seq + 1);
}

/** True when @p v is 0 or a value one of @p nodes wrote to @p word. */
bool
writtenTo(Word v, std::size_t word, std::size_t nodes)
{
    return v == 0 || ((v >> 40) == word && ((v >> 32) & 0xff) < nodes);
}

void
genCoherent(State &st, const Options &o)
{
    const std::size_t nodes = o.tiny ? 4 : 16;
    InputRng rng(o.seed * 0x100000001b3ULL + 3);
    const std::size_t per_node = o.tiny ? 80 : 2000;
    st.ops.assign(nodes, {});
    st.counterAdds.assign(kCounterWords, 0);
    for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t i = 0; i < per_node; ++i) {
            Op op;
            // Gaps keep node 0's link (15-way reflected multicast of
            // every write) at roughly half load rather than saturated.
            op.gap = rng.between(40'000, 120'000);
            const std::uint64_t pick = rng.below(100);
            if (pick < 30) {
                op.kind = OpKind::Write;
                op.word = std::uint32_t(rng.below(kSharedWords));
                op.value = coherentValue(op.word, n, i);
            } else if (pick < 70) {
                op.kind = OpKind::LocalRead;
                op.word = std::uint32_t(rng.below(kSharedWords));
            } else if (pick < 85) {
                op.kind = OpKind::Read; // poll a counter at node 0
                op.word = std::uint32_t(rng.below(kCounterWords));
            } else {
                op.kind = OpKind::FetchAdd;
                op.word = std::uint32_t(rng.below(kCounterWords));
                ++st.counterAdds[op.word];
            }
            st.ops[n].push_back(op);
        }
    }
}

Workload
buildCoherent(State &st, const Options &o, Outcome &out, SpanLog &log)
{
    const std::size_t nodes = st.ops.size();
    st.counterOld.assign(kCounterWords, {});
    Workload w;
    {
        Scope s(log, "api.build");
        ClusterSpec spec = ClusterSpec::star(nodes)
                               .seed(o.seed)
                               .trace(o.tracer == 1)
                               .protocol(coherence::ProtocolKind::OwnerCounter);
        w.cluster = std::make_unique<Cluster>(spec);
    }
    Cluster &c = *w.cluster;
    {
        Scope s(log, "api.alloc");
        st.shared = &c.allocShared("shared", 8192, 0);
        for (std::size_t n = 1; n < nodes; ++n)
            st.shared->replicate(NodeId(n),
                                 coherence::ProtocolKind::OwnerCounter);
        st.counters = &c.allocShared("counters", 8192, 0);
        st.anchor = &c.allocShared("anchor", 8192, 0);
    }
    {
        Scope s(log, "api.spawn");
        spawnAnchorPass(c, *st.anchor, out, int(anchorOps(o)),
                        int(anchorOps(o) / 2));
    }
    const bool corrupt = o.corrupt;
    w.verify = [&st, nodes, corrupt](Outcome &res) {
        // Convergence: every replica word equals home.
        for (std::size_t n = 1; n < nodes; ++n)
            for (std::size_t i = 0; i < kSharedWords; ++i)
                if (st.shared->peekCopy(NodeId(n), i) != st.shared->peek(i))
                    res.fail("replica differs from home after quiescence");
        // Home holds a value some node wrote to that very word.
        for (std::size_t i = 0; i < kSharedWords; ++i)
            if (!writtenTo(st.shared->peek(i), i, nodes))
                res.fail("home word holds a foreign value");
        // Counters: final value = adds, and the returned old values are
        // exactly 0..adds-1 (each fetch&add saw a distinct state).
        for (std::size_t k = 0; k < kCounterWords; ++k) {
            const Word expect = st.counterAdds[k] + (corrupt ? 1 : 0);
            if (st.counters->peek(k) != expect)
                res.fail("counter total differs from the adds issued");
            std::vector<Word> olds = st.counterOld[k];
            std::sort(olds.begin(), olds.end());
            for (std::size_t i = 0; i < olds.size(); ++i)
                if (olds[i] != Word(i)) {
                    res.fail("fetch&add old values are not a permutation");
                    break;
                }
        }
    };
    return w;
}

void
spawnCoherent(Cluster &c, State &st, Outcome &out, const Options &)
{
    const std::size_t nodes = st.ops.size();
    for (std::size_t n = 0; n < nodes; ++n) {
        c.spawn(NodeId(n), [&st, &out, n, nodes](Ctx &ctx) -> Task<void> {
            for (const Op &op : st.ops[n]) {
                co_await ctx.compute(op.gap);
                const Tick t0 = ctx.now();
                switch (op.kind) {
                case OpKind::Write: {
                    const Result<void> r =
                        co_await ctx.write(st.shared->word(op.word), op.value);
                    out.sample(kWrite, ctx.now() - t0);
                    if (!r.ok())
                        out.fail("coherent write not ok");
                    break;
                }
                case OpKind::LocalRead: {
                    const Result<Word> r =
                        co_await ctx.read(st.shared->word(op.word));
                    out.sample(kLocalRead, ctx.now() - t0);
                    if (!r.ok() || !writtenTo(r.value(), op.word, nodes))
                        out.fail("replica read returned a foreign value");
                    break;
                }
                case OpKind::Read: {
                    const Result<Word> r =
                        co_await ctx.read(st.counters->word(op.word));
                    out.sample(kRead, ctx.now() - t0);
                    if (!r.ok() || r.value() > st.counterAdds[op.word])
                        out.fail("counter read beyond the adds issued");
                    break;
                }
                case OpKind::FetchAdd: {
                    const Word old =
                        co_await ctx.fetchAdd(st.counters->word(op.word), 1);
                    out.sample(kAtomic, ctx.now() - t0);
                    st.counterOld[op.word].push_back(old);
                    break;
                }
                }
                ++out.completed;
            }
            if (!(co_await ctx.fence()).ok())
                out.fail("fence not ok");
            out.finish(ctx.now());
        });
        out.attempted += st.ops[n].size();
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/** Nearest-rank percentile of @p v (sorted in place), in microseconds. */
double
percentileUs(std::vector<std::uint32_t> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(q * double(v.size()) + 0.999999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return toUs(v[rank - 1]);
}

/** Peak resident set of this process image.  VmHWM restarts at exec,
 *  unlike getrusage's ru_maxrss, which keeps the parent's peak from
 *  before the exec (the fallback where /proc is absent). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0 / 1e6; // both are in KiB
}

/** Deterministic work counters, read through the accessors
 *  Cluster::statsReport uses, summed (or maxed) over nodes. */
std::map<std::string, double>
counters(Cluster &c)
{
    std::map<std::string, double> m;
    double cache_hits = 0, cache_acc = 0, tlb_hits = 0, tlb_acc = 0;
    double touched = 0, peak = 0;
    for (NodeId n = 0; n < NodeId(c.numNodes()); ++n) {
        node::Workstation &ws = c.node(n);
        hib::Hib &hib = ws.hib();
        m["node.cpu_ops"] += double(ws.cpu().opsIssued());
        m["node.ctx_switches"] += double(ws.cpu().contextSwitches());
        cache_hits += double(ws.cache().hits());
        cache_acc += double(ws.cache().hits() + ws.cache().misses());
        tlb_hits += double(ws.mmu().hits());
        tlb_acc += double(ws.mmu().hits() + ws.mmu().misses());
        m["node.tc_transactions"] += double(ws.tc().transactions());
        m["node.tc_busy_us"] += toUs(ws.tc().busyTicks());
        m["node.tc_wait_us"] += toUs(ws.tc().waitTicks());
        m["hib.packets_handled"] += double(hib.packetsHandled());
        peak = std::max(peak, double(hib.outstanding().peak()));
        m["hib.atomics"] += double(hib.atomicUnit().executed());
        m["hib.counter_cache_stalls"] +=
            double(hib.counterCache().stallEvents());
        m["hib.counter_cache_stall_us"] +=
            toUs(hib.counterCache().stallTicks());
        touched += double(ws.mem().touchedBytes());
    }
    m["node.cache_accesses"] = cache_acc;
    m["node.cache_hit_rate"] = cache_acc > 0 ? cache_hits / cache_acc : 0;
    m["node.tlb_accesses"] = tlb_acc;
    m["node.tlb_hit_rate"] = tlb_acc > 0 ? tlb_hits / tlb_acc : 0;
    m["node.mem_touched_mb"] = touched / 1e6;
    m["hib.outstanding_peak"] = peak;

    m["sim.events"] = double(c.system().events().executed());
    m["net.switch_forwarded"] = double(c.network().switchForwarded());
    m["net.arena_high_water"] = double(c.system().arena().highWater());
    m["net.retransmissions"] = double(c.network().retransmissions());
    m["net.wire_failures"] = double(c.network().wireFailures());

    auto &oc = dynamic_cast<coherence::OwnerCounterProtocol &>(
        c.protocol(coherence::ProtocolKind::OwnerCounter));
    const double refl = double(oc.reflectedWrites());
    const double ign = double(oc.ignoredUpdates());
    m["coherence.reflected_writes"] = refl;
    m["coherence.ignored_updates"] = ign;
    m["coherence.useful_update_ratio"] = refl > 0 ? (refl - ign) / refl : 0;
    return m;
}

/** span.<kind>.<span>_ns and span.<kind>.hops from the tracer's
 *  breakdown (kinds write/read/atomic; zero when not traced). */
std::map<std::string, double>
spanMetrics(const trace::Breakdown &bd)
{
    static const std::pair<const char *, trace::OpKind> kinds[] = {
        {"write", trace::OpKind::RemoteWrite},
        {"read", trace::OpKind::RemoteRead},
        {"atomic", trace::OpKind::RemoteAtomic},
    };
    static const trace::Span spans[] = {
        trace::Span::TcGrant,   trace::Span::HibLaunch,
        trace::Span::LinkTx,    trace::Span::LinkRx,
        trace::Span::SwitchFwd, trace::Span::HibHandle,
        trace::Span::Completion,
    };
    std::map<std::string, double> m;
    for (const auto &[kname, kind] : kinds) {
        const std::string pre = std::string("span.") + kname + ".";
        for (const trace::Span sp : spans)
            m[pre + trace::spanName(sp) + "_ns"] = 0;
        m[pre + "hops"] = 0;
        const trace::OpBreakdown *ob = bd.of(kind);
        if (!ob)
            continue;
        for (const trace::BreakdownRow &row : ob->rows) {
            const std::string key = pre + trace::spanName(row.span) + "_ns";
            if (m.count(key))
                m[key] = row.meanTicks * (1000.0 / kTicksPerUs);
        }
        m[pre + "hops"] = ob->meanHops;
    }
    return m;
}

void
jsonNum(std::ostream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
jsonStr(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\';
        os << ch;
    }
    os << '"';
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tgbench --workload fattree256-uniform|"
                 "torus3d256-hostcoll|star16-coherent --seed N "
                 "[--scale full|tiny] [--tracer auto|on|off] "
                 "[--spans FILE] [--run K] [--corrupt]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has)
            o.workload = argv[++i];
        else if (a == "--seed" && has)
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--scale" && has)
            o.tiny = std::string(argv[++i]) == "tiny";
        else if (a == "--tracer" && has) {
            const std::string t = argv[++i];
            o.tracer = t == "on" ? 1 : t == "off" ? 0 : -1;
        } else if (a == "--spans" && has)
            o.spansPath = argv[++i];
        else if (a == "--run" && has)
            o.run = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--corrupt")
            o.corrupt = true;
        else
            return usage();
    }

    struct Entry
    {
        const char *name;
        void (*gen)(State &, const Options &);
        Workload (*build)(State &, const Options &, Outcome &, SpanLog &);
        void (*spawn)(Cluster &, State &, Outcome &, const Options &);
    };
    static const Entry kWorkloads[] = {
        {"fattree256-uniform", genUniform, buildUniform, spawnUniform},
        {"torus3d256-hostcoll", genHostColl, buildHostColl, spawnHostColl},
        {"star16-coherent", genCoherent, buildCoherent, spawnCoherent},
    };
    const Entry *wl = nullptr;
    for (const Entry &e : kWorkloads)
        if (o.workload == e.name)
            wl = &e;
    if (!wl)
        return usage();

    State st;
    Outcome out;
    SpanLog log(o.run);
    const int root = log.open("workload");
    {
        Scope s(log, "inputs");
        wl->gen(st, o);
    }

    // --- set-up: spec to first Cluster::run ----------------------------
    HostTime setup, run, teardown;
    Workload w;
    {
        Timed t(log, setup);
        w = wl->build(st, o, out, log);
    }
    Cluster &c = *w.cluster;

    {
        // Quiet section 3.2 pass first, with the packet tracer paused so
        // the breakdown covers the main phase only.
        const bool traced = c.tracer().enabled();
        c.tracer().setEnabled(false);
        Scope s(log, "api.run.anchor");
        Timed t(log, run);
        c.run(c.now() + kRunLimit);
        c.tracer().setEnabled(traced);
    }
    if (!c.allDone())
        out.fail("anchor pass never completed");
    {
        Scope s(log, "api.spawn");
        Timed t(log, setup);
        wl->spawn(c, st, out, o);
    }
    out.mainStart = c.now();
    {
        Scope s(log, "api.run");
        Timed t(log, run);
        c.run(c.now() + kRunLimit);
    }

    // --- oracle ---------------------------------------------------------
    if (!c.allDone())
        out.fail("programs never completed");
    if (c.anyKilled())
        out.fail("a program was killed");
    std::string why;
    if (!c.auditQuiescent(&why))
        out.fail("packet audit: " + why);
    {
        Scope s(log, "verify");
        w.verify(out);
    }
    if (out.completed < out.attempted)
        out.failed += out.attempted - out.completed;

    const std::uint64_t hash = c.traceHash();
    const std::uint64_t hash_len = c.traceLength();
    const std::map<std::string, double> ctr = counters(c);
    const bool traced = c.tracer().enabled();
    const trace::Breakdown bd = c.latencyBreakdown();
    const std::map<std::string, double> spans = spanMetrics(bd);
    const double trace_records = double(c.tracer().recordedEvents());
    const double trace_bytes = double(c.tracer().approxBytes());
    const Tick end_tick = out.lastFinish;

    {
        Scope s(log, "api.teardown");
        Timed t(log, teardown);
        w.cluster.reset();
    }
    log.close(root);
    const double peak_rss_mb = peakRssMb();
    // After the peak is read, so the kernel's buffers never count in it.
    const double calibration_s = calibrationCpuS();

    // --- report -----------------------------------------------------------
    std::vector<std::uint32_t> blocking, reads = out.lat[kRead];
    std::ostringstream cls;
    for (std::size_t k = kRead; k < kNumClasses; ++k)
        blocking.insert(blocking.end(), out.lat[k].begin(), out.lat[k].end());
    cls << "{";
    bool first = true;
    for (std::size_t k = 0; k < kNumClasses; ++k) {
        if (out.lat[k].empty())
            continue;
        cls << (first ? "" : ",") << "\"" << kClassNames[k]
            << "\":{\"n\":" << out.lat[k].size() << ",\"p50_us\":";
        jsonNum(cls, percentileUs(out.lat[k], 0.50));
        cls << ",\"p99_us\":";
        jsonNum(cls, percentileUs(out.lat[k], 0.99));
        cls << "}";
        first = false;
    }
    cls << "}";

    const double anchor_err =
        100.0 * std::max(std::abs(out.anchorWriteUs - 0.70) / 0.70,
                         std::abs(out.anchorReadUs - 7.2) / 7.2);

    std::ostringstream js;
    js << "{\"workload\":";
    jsonStr(js, o.workload);
    js << ",\"seed\":" << o.seed << ",\"traced\":" << (traced ? 1 : 0);
    const std::pair<const char *, double> host[] = {
        {"setup_s", setup.wallS},
        {"run_s", run.wallS},
        {"teardown_s", teardown.wallS},
        {"wall_s", setup.wallS + run.wallS + teardown.wallS},
        {"peak_rss_mb", peak_rss_mb},
        {"api.build_s", log.total("api.build")},
        {"api.alloc_s", log.total("api.alloc")},
        {"api.communicator_s", log.total("api.communicator")},
        {"api.spawn_s", log.total("api.spawn")},
        {"api.teardown_s", log.total("api.teardown")},
    };
    js << ",\"host\":{";
    first = true;
    for (const auto &[k, v] : host) {
        js << (first ? "" : ",") << "\"" << k << "\":";
        jsonNum(js, v);
        first = false;
    }
    js << "},\"cpu\":{\"setup_s\":";
    jsonNum(js, setup.cpuS);
    js << ",\"run_s\":";
    jsonNum(js, run.cpuS);
    js << ",\"total_s\":";
    jsonNum(js, setup.cpuS + run.cpuS + teardown.cpuS);
    js << ",\"calibration_s\":";
    jsonNum(js, calibration_s);
    js << "},\"sim\":{\"sim_makespan_us\":";
    jsonNum(js, toUs(end_tick > out.mainStart ? end_tick - out.mainStart : 0));
    js << ",\"op_p50_us\":";
    jsonNum(js, percentileUs(blocking, 0.50));
    js << ",\"op_p99_us\":";
    jsonNum(js, percentileUs(blocking, 0.99));
    js << ",\"op_samples\":" << blocking.size() << ",\"read_p99_us\":";
    jsonNum(js, percentileUs(reads, 0.99));
    js << ",\"read_samples\":" << reads.size() << ",\"anchor_write_us\":";
    jsonNum(js, out.anchorWriteUs);
    js << ",\"anchor_read_us\":";
    jsonNum(js, out.anchorReadUs);
    js << ",\"anchor_error_pct\":";
    jsonNum(js, anchor_err);
    js << "},\"classes\":" << cls.str();
    js << ",\"fingerprint\":{\"trace_hash\":\"";
    char hbuf[32];
    std::snprintf(hbuf, sizeof(hbuf), "%016llx", (unsigned long long)hash);
    js << hbuf << "\",\"trace_length\":" << hash_len;
    for (const auto &[k, v] : ctr) {
        js << ",";
        jsonStr(js, k);
        js << ":";
        jsonNum(js, v);
    }
    js << "},\"trace\":{\"trace.records\":";
    jsonNum(js, trace_records);
    js << ",\"trace.bytes\":";
    jsonNum(js, trace_bytes);
    for (const auto &[k, v] : spans) {
        js << ",";
        jsonStr(js, k);
        js << ":";
        jsonNum(js, v);
    }
    js << "},\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"why\":[";
    for (std::size_t i = 0; i < out.why.size(); ++i) {
        js << (i ? "," : "");
        jsonStr(js, out.why[i]);
    }
    js << "]}";
    std::printf("%s\n", js.str().c_str());

    if (!o.spansPath.empty()) {
        std::ofstream f(o.spansPath);
        log.writeChrome(f, o.workload, o.seed, traced ? bd.toJson() : "");
        if (!f) {
            std::fprintf(stderr, "tgbench: cannot write %s\n",
                         o.spansPath.c_str());
            return 1;
        }
    }
    return out.failed == 0 ? 0 : 1;
}
