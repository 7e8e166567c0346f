/**
 * @file
 * Deterministic packet-lifecycle tracer (DESIGN.md sections 8 and 14.4).
 *
 * The paper's evidence for its latency claims is a logic-analyzer
 * timeline: section 3.2 accounts for every nanosecond of the 0.70 us
 * remote write and the 7.2 us remote read.  The tracer is the simulator's
 * substitute for that instrument.  When enabled it is told, at every
 * boundary a packet (or CPU-issued remote operation) crosses, which
 * operation crossed which boundary and when:
 *
 *   CPU issue -> TurboChannel grant -> HIB launch -> link serialization
 *   -> switch forward -> remote HIB handle -> ack/completion
 *   (plus fence register/wake pairs)
 *
 * keyed by a monotonic operation id that rides in Packet::traceId and is
 * copied into replies/acks, so one id covers the full request/response
 * lifecycle.  The crossings are not stored: each one streams straight
 * into fixed aggregates, from which the tracer derives
 *
 *  - a per-operation latency *breakdown* table: for every op kind the
 *    mean time spent between consecutive boundaries; components sum to
 *    the mean end-to-end lifecycle by construction, and
 *  - per-kind first->last lifetimes (the p50/p99 latency columns) and
 *    switch-hop counts.
 *
 * Scale contract (section 14.4): the tracer's memory is *bounded* no
 * matter how long the run or how many nodes trace into it.  Breakdown
 * aggregates stream into fixed (kind, span) cells as events arrive.
 * Open operations live in a tg::Ring capped by setOpenOpCap().  Every
 * operation of an enabled run is traced and pushed at the back in id
 * order, so the ring's ids are contiguous and end at the last id
 * handed out: the oldest op is evicted by pop(), and op id sits at
 * position id - (next id - size()), with no id stored.  Per-kind
 * lifetimes keep an exact sample set up to a cap and drop the rest.
 * approxBytes() reports the footprint, counting the open-op ring at its
 * capacity, so tests can assert the bound.
 *
 * Overhead contract: tracing is disabled by default; every record() call
 * is a single branch on the fast path and performs no heap allocation and
 * no observable side effect while disabled, so the audit trace hash of a
 * run is identical with the tracer compiled in, enabled or not.
 */

#ifndef TELEGRAPHOS_SIM_TRACE_HPP
#define TELEGRAPHOS_SIM_TRACE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/ring.hpp"
#include "sim/types.hpp"

namespace tg::trace {

/** Boundary a traced operation crossed (chronological pipeline order). */
enum class Span : std::uint8_t
{
    CpuIssue,   ///< CPU issued the remote operation
    TcGrant,    ///< TurboChannel granted the transaction carrying it
    HibLaunch,  ///< HIB latched the packet into its egress path
    LinkTx,     ///< link started serializing the packet
    LinkRx,     ///< packet landed at the downstream end of a link
    SwitchFwd,  ///< switch forwarded the packet to an output queue
    HibHandle,  ///< a HIB consumed the packet from its ingress FIFO
    Completion, ///< the operation's waiter was released (ack/reply/data)
    FenceStart, ///< a fence registered against the outstanding counter
    FenceWake,  ///< the fence drained and its waiter resumed
};

/** Number of Span enumerators (sizes the streaming aggregate cells). */
inline constexpr std::size_t kNumSpans = 10;

/** Short mnemonic for a span point. */
const char *spanName(Span s);

/** Kind of traced operation (used to group breakdown rows). */
enum class OpKind : std::uint8_t
{
    RemoteWrite,
    RemoteRead,
    RemoteAtomic,
    RemoteCopy,
    Fence,
    Coherence,
    Software,
    CollBarrier,  ///< NIC-resident barrier (hib::CollEngine)
    CollBcast,    ///< NIC-resident broadcast
    CollReduce,   ///< NIC-resident reduce / all-reduce
    Other,
};

/** Number of OpKind enumerators (sizes the streaming aggregates). */
inline constexpr std::size_t kNumKinds = 11;

/** Short mnemonic for an op kind. */
const char *opKindName(OpKind k);

/** One component row of an operation-kind breakdown. */
struct BreakdownRow
{
    Span span;          ///< boundary this component's time ends at
    std::uint64_t count; ///< boundary crossings aggregated into the row
    double meanTicks;   ///< mean per-operation contribution
};

/** Latency decomposition of one operation kind. */
struct OpBreakdown
{
    OpKind kind;
    std::uint64_t ops;  ///< operations with >= 2 recorded boundaries
    double totalTicks;  ///< mean first->last lifetime; == sum of rows
    double meanHops;    ///< mean switch traversals per operation
    std::vector<BreakdownRow> rows;

    /** Sum of the component rows (equals totalTicks by construction;
     *  exposed so callers can assert the invariant). */
    double rowSumTicks() const;
};

/** Full breakdown table over every traced operation kind. */
struct Breakdown
{
    std::vector<OpBreakdown> ops;

    /** Breakdown of @p kind (nullptr when no ops of that kind traced). */
    const OpBreakdown *of(OpKind kind) const;

    /** Paper-style table ("where each ns goes"), one block per kind. */
    void print(std::ostream &os) const;

    /** Machine-readable form ({"schema":"tg-breakdown-v1", ...}). */
    std::string toJson() const;
};

/**
 * The recorder.  One per System; components call record() at packet
 * boundaries.  All methods are no-ops (without allocation) while
 * disabled.
 */
class Tracer
{
  public:
    /** True when events are being recorded. */
    bool enabled() const { return _enabled; }

    /** Switch recording on/off (Config::tracePackets sets the default). */
    void setEnabled(bool on) { _enabled = on; }

    /**
     * Allocate a fresh operation id of @p kind.  Returns the null id (0,
     * which record() ignores) while disabled.  Ids are handed out in
     * increasing order, one per operation.
     */
    std::uint64_t beginOp(OpKind kind);

    /** Kind of operation @p id (Other when unknown or already retired). */
    OpKind kindOf(std::uint64_t id) const;

    /** Record one boundary crossing.  Constant-time branch when the
     *  tracer is disabled or @p id is the null id. */
    void
    record(std::uint64_t id, Span sp, Tick t)
    {
        if (!_enabled || id == 0)
            return;
        recordImpl(id, sp, t);
    }

    /** Boundary crossings recorded over the run. */
    std::uint64_t recordedEvents() const { return _recorded; }

    /** Open operations force-retired to respect the open-op cap. */
    std::uint64_t evictedOps() const { return _evictedOps; }

    /** Operations begun so far. */
    std::uint64_t opsBegun() const { return _nextId - 1; }

    /** Derive the per-operation-kind latency breakdown table. */
    Breakdown breakdown() const;

    /**
     * First->last boundary lifetime of completed (>= 2 boundaries)
     * operations of @p kind, sorted ascending — ready for percentile
     * extraction (bench_n1_scaling's p50/p99 latency columns).  Exact
     * until the per-kind sample cap; past it, the first retired
     * lifetimes up to the cap plus the still-open ops.
     */
    std::vector<Tick> opLifetimes(OpKind kind) const;

    // ------------------------------------------------------------------
    // Bounds (the defaults hold every test workload exactly; a run that
    // begins more ops sizes them to its run, as bench_n1_scaling does)
    // ------------------------------------------------------------------

    /** Cap on concurrently open (un-retired) operations. */
    void setOpenOpCap(std::size_t cap);

    /** Cap on retained per-kind lifetime samples (later ones drop). */
    void setLifetimeSampleCap(std::size_t cap);

    /** Approximate heap footprint in bytes (bounded-memory assertion). */
    std::size_t approxBytes() const;

  private:
    /** Live state of one not-yet-retired operation. */
    struct OpState
    {
        OpKind kind;
        Tick first = 0;
        Tick last = 0;
        std::uint32_t boundaries = 0;
        std::uint32_t hops = 0;
    };

    /** Streaming (kind, span) aggregate: total delta ticks + crossings. */
    struct Cell
    {
        std::uint64_t ticks = 0;
        std::uint64_t count = 0;
    };

    /** Finalized per-kind aggregates + bounded lifetime samples. */
    struct KindAgg
    {
        std::uint64_t ops = 0;  ///< retired ops with >= 2 boundaries
        std::uint64_t hops = 0; ///< their switch traversals
        std::vector<Tick> exact; ///< lifetimes, up to the cap
    };

    void recordImpl(std::uint64_t id, Span sp, Tick t);
    void retire(const OpState &st);

    /** Ring position of open op @p id, or _open.size() when not open. */
    std::size_t openIndex(std::uint64_t id) const;

    /** Force-retire the oldest open op into the aggregates. */
    void evictOldest();

    bool _enabled = false;
    std::uint64_t _nextId = 1;
    std::uint64_t _recorded = 0;

    /// Open ops in id order: ids are contiguous and end at _nextId - 1.
    Ring<OpState> _open;
    std::size_t _openCap = std::size_t(1) << 15;
    std::uint64_t _evictedOps = 0;

    Cell _cells[kNumKinds][kNumSpans] = {};
    KindAgg _agg[kNumKinds];
    std::size_t _lifetimeCap = 4096;
};

} // namespace tg::trace

#endif // TELEGRAPHOS_SIM_TRACE_HPP
