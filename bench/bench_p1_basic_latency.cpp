/**
 * @file
 * Experiment P1: the paper's section 3.2 latency table.
 *
 *   | Operation    | Elapsed Time (usec) |   (paper, DEC 3000/300 pair)
 *   | Remote Read  | 7.2                 |
 *   | Remote Write | 0.70                |
 *
 * Methodology mirrors the paper: one application on one workstation
 * performs 10000 remote operations against the other workstation's HIB
 * through ordinary load/store instructions; we report the mean latency.
 * Also reported: remote atomic and fence costs, and per-prototype
 * variants — the paper measured Telegraphos I.
 */

#include <cstdio>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/measure.hpp"
#include "api/segment.hpp"
#include "net/link.hpp"

using namespace tg;

namespace {

struct Latencies
{
    double writeUs = 0;
    double readUs = 0;
    double atomicUs = 0;
    double fenceUs = 0;
    /** Wire serialization of one remote-write request (traced runs
     *  only).  Steady-state streamed writes complete at exactly this
     *  interval — the paper's 0.70 us (section 3.2). */
    double writeWireUs = 0;
};

Latencies
measure(Prototype proto, int ops, BenchReport *report = nullptr,
        bool traced = false)
{
    // Tracing is passive (DESIGN.md section 8): latencies are identical
    // with it on, so the traced run doubles as the measurement run.
    ClusterSpec spec = ClusterSpec::star(2).prototype(proto).trace(traced);
    Cluster cluster(spec);
    Segment &seg = cluster.allocShared("target", 8192, /*owner=*/0);

    Latencies out;
    cluster.spawn(1, [&](Ctx &ctx) -> Task<void> {
        // -- remote writes ------------------------------------------------
        // Exactly the paper's methodology: a stream of `ops` stores,
        // total elapsed time divided by the count.  The long stream runs
        // at the network transfer rate (section 3.2).
        const Tick w0 = ctx.now();
        for (int i = 0; i < ops; ++i)
            co_await ctx.write(seg.word(i % 64), Word(i));
        co_await ctx.fence();
        out.writeUs = toUs(ctx.now() - w0) / ops;

        // -- remote reads -------------------------------------------------
        Tick acc = 0;
        for (int i = 0; i < ops; ++i) {
            const Tick t0 = ctx.now();
            (void)co_await ctx.read(seg.word(i % 64));
            acc += ctx.now() - t0;
        }
        out.readUs = toUs(acc) / ops;

        // -- remote atomic (fetch&inc) -------------------------------------
        acc = 0;
        for (int i = 0; i < ops / 10; ++i) {
            const Tick t0 = ctx.now();
            (void)co_await ctx.fetchAdd(seg.word(64), 1);
            acc += ctx.now() - t0;
        }
        out.atomicUs = toUs(acc) / (ops / 10);

        // -- fence after one write ----------------------------------------
        acc = 0;
        for (int i = 0; i < ops / 10; ++i) {
            co_await ctx.write(seg.word(0), Word(i));
            const Tick t0 = ctx.now();
            co_await ctx.fence();
            acc += ctx.now() - t0;
        }
        out.fenceUs = toUs(acc) / (ops / 10);
    });

    cluster.run(2'000'000'000'000ULL);

    if (traced) {
        // The streamed-write rate is bottlenecked by wire serialization:
        // the time the link charges one WriteReq.
        const Config &cfg = cluster.config();
        net::Packet req;
        req.type = net::PacketType::WriteReq;
        out.writeWireUs = toUs(net::Channel::serTicks(
            req.wireBytes(cfg.packetHeaderBytes), cfg.linkBytesPerTick));

        const trace::Breakdown bd = cluster.latencyBreakdown();
        std::printf("\n--- lifecycle breakdown (%s, traced run) ---\n",
                    proto == Prototype::TelegraphosI ? "Telegraphos I"
                                                     : "Telegraphos II");
        bd.print(std::cout);
        std::printf("(streamed writes pipeline: the per-op lifecycle above "
                    "includes queueing;\n the sustained rate is the wire "
                    "serialization interval, %.2f us/write)\n",
                    out.writeWireUs);
        if (report) {
            report->breakdown(bd);
            report->stats(cluster);
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr int kOps = 10000; // as in the paper
    BenchReport report("bench_p1_basic_latency", argc, argv);

    std::printf("=== P1: basic operation latency (section 3.2) ===\n");
    std::printf("methodology: %d operations node1 -> node0, "
                "DEC 3000/300 + TurboChannel calibration\n\n", kOps);

    const Latencies t1 =
        measure(Prototype::TelegraphosI, kOps, &report, /*traced=*/true);
    const Latencies t2 = measure(Prototype::TelegraphosII, kOps);

    ResultTable table({"Operation", "Telegraphos I (us)",
                       "Telegraphos II (us)", "paper (us)"});
    table.addRow({"Remote Write", ResultTable::num(t1.writeUs),
                  ResultTable::num(t2.writeUs), "0.70"});
    table.addRow({"Remote Read", ResultTable::num(t1.readUs, 1),
                  ResultTable::num(t2.readUs, 1), "7.2"});
    table.addRow({"Remote Fetch&Inc", ResultTable::num(t1.atomicUs, 1),
                  ResultTable::num(t2.atomicUs, 1), "-"});
    table.addRow({"Fence (1 write)", ResultTable::num(t1.fenceUs, 1),
                  ResultTable::num(t2.fenceUs, 1), "-"});
    table.print();

    std::printf("\nshape check: write ~10x cheaper than read "
                "(paper: 0.70 vs 7.2)\n");

    report.anchor("t1.remote_write_us", t1.writeUs, 0.70);
    report.anchor("t1.remote_read_us", t1.readUs, 7.2);
    report.anchor("t1.write_wire_interval_us", t1.writeWireUs, 0.70);
    report.metric("t1.remote_fetch_inc_us", t1.atomicUs, "us");
    report.metric("t1.fence_us", t1.fenceUs, "us");
    report.metric("t2.remote_write_us", t2.writeUs, "us");
    report.metric("t2.remote_read_us", t2.readUs, "us");
    report.write();
    return 0;
}
