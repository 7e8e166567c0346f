/**
 * @file
 * Packet-lifecycle tracer: streaming aggregation, bounded retention,
 * breakdown derivation and its JSON export.
 */

#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/stats.hpp"

namespace tg::trace {

const char *
spanName(Span s)
{
    switch (s) {
    case Span::CpuIssue: return "cpu_issue";
    case Span::TcGrant: return "tc_grant";
    case Span::HibLaunch: return "hib_launch";
    case Span::LinkTx: return "link_tx";
    case Span::LinkRx: return "link_rx";
    case Span::SwitchFwd: return "switch_fwd";
    case Span::HibHandle: return "hib_handle";
    case Span::Completion: return "completion";
    case Span::FenceStart: return "fence_start";
    case Span::FenceWake: return "fence_wake";
    }
    return "?";
}

const char *
opKindName(OpKind k)
{
    switch (k) {
    case OpKind::RemoteWrite: return "write";
    case OpKind::RemoteRead: return "read";
    case OpKind::RemoteAtomic: return "atomic";
    case OpKind::RemoteCopy: return "copy";
    case OpKind::Fence: return "fence";
    case OpKind::Coherence: return "coherence";
    case OpKind::Software: return "software";
    case OpKind::CollBarrier: return "coll_barrier";
    case OpKind::CollBcast: return "coll_bcast";
    case OpKind::CollReduce: return "coll_reduce";
    case OpKind::Other: return "other";
    }
    return "?";
}

double
OpBreakdown::rowSumTicks() const
{
    double sum = 0;
    for (const auto &r : rows)
        sum += r.meanTicks;
    return sum;
}

const OpBreakdown *
Breakdown::of(OpKind kind) const
{
    for (const auto &op : ops)
        if (op.kind == kind)
            return &op;
    return nullptr;
}

void
Breakdown::print(std::ostream &os) const
{
    for (const auto &op : ops) {
        os << "-- breakdown: " << opKindName(op.kind) << " (" << op.ops
           << " ops, " << std::fixed << std::setprecision(2) << op.meanHops
           << std::defaultfloat << std::setprecision(6)
           << " hops/op) --\n";
        os << "  " << std::left << std::setw(12) << "component"
           << std::right << std::setw(10) << "count" << std::setw(12)
           << "mean(us)" << std::setw(9) << "share" << "\n";
        for (const auto &r : op.rows) {
            double share =
                op.totalTicks > 0 ? 100.0 * r.meanTicks / op.totalTicks : 0.0;
            os << "  " << std::left << std::setw(12) << spanName(r.span)
               << std::right << std::setw(10) << r.count << std::setw(12)
               << std::fixed << std::setprecision(3)
               << r.meanTicks / kTicksPerUs << std::setw(8)
               << std::setprecision(1) << share << "%"
               << std::defaultfloat << std::setprecision(6) << "\n";
        }
        os << "  " << std::left << std::setw(12) << "total" << std::right
           << std::setw(10) << "" << std::setw(12) << std::fixed
           << std::setprecision(3) << op.totalTicks / kTicksPerUs
           << std::defaultfloat << std::setprecision(6) << "\n";
    }
}

std::string
Breakdown::toJson() const
{
    std::ostringstream os;
    os << "{\"schema\":\"tg-breakdown-v1\",\"ops\":[";
    bool firstOp = true;
    for (const auto &op : ops) {
        if (!firstOp)
            os << ",";
        firstOp = false;
        os << "{\"kind\":\"" << opKindName(op.kind) << "\",\"ops\":" << op.ops
           << ",\"total_us\":" << fmtNum(op.totalTicks / kTicksPerUs)
           << ",\"mean_hops\":" << fmtNum(op.meanHops)
           << ",\"components\":[";
        bool firstRow = true;
        for (const auto &r : op.rows) {
            if (!firstRow)
                os << ",";
            firstRow = false;
            os << "{\"span\":\"" << spanName(r.span)
               << "\",\"count\":" << r.count
               << ",\"mean_us\":" << fmtNum(r.meanTicks / kTicksPerUs)
               << "}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

std::uint64_t
Tracer::beginOp(OpKind kind)
{
    if (!_enabled)
        return 0;
    const std::uint64_t id = _nextId++;
    // Deterministic eviction: the oldest (smallest-id) open op is
    // force-retired into the aggregates.
    if (_open.size() >= _openCap)
        evictOldest();
    _open.push(OpState{kind, 0, 0, 0, 0});
    return id;
}

std::size_t
Tracer::openIndex(std::uint64_t id) const
{
    // Every op is pushed in id order, so the ring's ids are contiguous
    // and the front holds id _nextId - size().  An id below the front
    // wraps to an offset past size(), so the one comparison bounds both
    // sides.
    const std::uint64_t i = id - (_nextId - _open.size());
    return i < _open.size() ? static_cast<std::size_t>(i) : _open.size();
}

void
Tracer::evictOldest()
{
    retire(_open.pop());
    ++_evictedOps;
}

OpKind
Tracer::kindOf(std::uint64_t id) const
{
    const std::size_t i = openIndex(id);
    return i == _open.size() ? OpKind::Other : _open[i].kind;
}

void
Tracer::recordImpl(std::uint64_t id, Span sp, Tick t)
{
    ++_recorded;

    // An evicted op (or an id that never came from beginOp) no longer
    // aggregates.
    const std::size_t i = openIndex(id);
    if (i == _open.size())
        return;
    OpState &st = _open[i];
    if (st.boundaries == 0) {
        st.first = st.last = t;
        st.boundaries = 1;
    } else {
        Cell &c = _cells[static_cast<std::size_t>(st.kind)]
                        [static_cast<std::size_t>(sp)];
        c.ticks += t - st.last;
        ++c.count;
        st.last = t;
        ++st.boundaries;
    }
    if (sp == Span::SwitchFwd)
        ++st.hops;
}

void
Tracer::retire(const OpState &st)
{
    if (st.boundaries < 2)
        return;
    KindAgg &agg = _agg[static_cast<std::size_t>(st.kind)];
    ++agg.ops;
    agg.hops += st.hops;
    if (agg.exact.size() < _lifetimeCap)
        agg.exact.push_back(st.last - st.first);
}

Breakdown
Tracer::breakdown() const
{
    // Open ops with >= 2 boundaries count exactly like retired ones;
    // their span deltas already streamed into the cells at record time.
    std::uint64_t openOps[kNumKinds] = {};
    std::uint64_t openHops[kNumKinds] = {};
    for (std::size_t i = 0; i < _open.size(); ++i) {
        const OpState &st = _open[i];
        if (st.boundaries < 2)
            continue;
        const auto k = static_cast<std::size_t>(st.kind);
        ++openOps[k];
        openHops[k] += st.hops;
    }

    Breakdown bd;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
        const std::uint64_t ops = _agg[k].ops + openOps[k];
        if (ops == 0)
            continue;
        OpBreakdown op;
        op.kind = static_cast<OpKind>(k);
        op.ops = ops;
        double n = static_cast<double>(ops);
        op.meanHops =
            static_cast<double>(_agg[k].hops + openHops[k]) / n;
        for (std::size_t s = 0; s < kNumSpans; ++s) {
            const Cell &cell = _cells[k][s];
            if (cell.count == 0)
                continue;
            BreakdownRow row;
            row.span = static_cast<Span>(s);
            row.count = cell.count;
            row.meanTicks = static_cast<double>(cell.ticks) / n;
            op.rows.push_back(row);
        }
        // Define the total as the row sum so the decomposition is exact
        // even in floating point (acceptance: components sum to totals).
        op.totalTicks = op.rowSumTicks();
        bd.ops.push_back(op);
    }
    return bd;
}

std::vector<Tick>
Tracer::opLifetimes(OpKind kind) const
{
    const auto k = static_cast<std::size_t>(kind);
    std::vector<Tick> out = _agg[k].exact;
    for (std::size_t i = 0; i < _open.size(); ++i) {
        const OpState &st = _open[i];
        if (st.kind == kind && st.boundaries >= 2)
            out.push_back(st.last - st.first);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
Tracer::setOpenOpCap(std::size_t cap)
{
    _openCap = std::max<std::size_t>(cap, 1);
    while (_open.size() > _openCap)
        evictOldest();
}

void
Tracer::setLifetimeSampleCap(std::size_t cap)
{
    _lifetimeCap = std::max<std::size_t>(cap, 1);
}

std::size_t
Tracer::approxBytes() const
{
    std::size_t bytes = _open.capacity() * sizeof(OpState);
    for (const KindAgg &agg : _agg)
        bytes += agg.exact.capacity() * sizeof(Tick);
    return bytes;
}

} // namespace tg::trace
