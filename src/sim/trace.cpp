/**
 * @file
 * Packet-lifecycle tracer: streaming aggregation, bounded retention,
 * breakdown derivation and JSON exports.
 */

#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

namespace tg::trace {

namespace {

/** Deterministic decimal rendering for JSON / table output. */
std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

/** JSON-escape a component or kind name (names are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

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
           << ",\"total_us\":" << fmt(op.totalTicks / kTicksPerUs)
           << ",\"mean_hops\":" << fmt(op.meanHops) << ",\"components\":[";
        bool firstRow = true;
        for (const auto &r : op.rows) {
            if (!firstRow)
                os << ",";
            firstRow = false;
            os << "{\"span\":\"" << spanName(r.span)
               << "\",\"count\":" << r.count
               << ",\"mean_us\":" << fmt(r.meanTicks / kTicksPerUs) << "}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

std::uint16_t
Tracer::registerComponent(const std::string &name)
{
    _comps.push_back(name);
    return static_cast<std::uint16_t>(_comps.size() - 1);
}

std::uint64_t
Tracer::beginOp(OpKind kind)
{
    if (!_enabled)
        return 0;
    // The id is consumed whether or not the op is sampled: numbering is
    // a function of the workload alone, never of the sampling shift.
    // Unsampled ops still get their (real) id back — callers tag packets
    // with it so downstream layers know the op already began — but no
    // open-op state is kept and record() drops their events.
    const std::uint64_t id = _nextId++;
    if (!sampled(id, _sampleShift))
        return id;
    // Deterministic eviction: the oldest (smallest-id) open op is
    // force-retired into the aggregates.
    if (_open.size() >= _openCap)
        evictOldest();
    _open.push(OpenOp{id, OpState{kind, 0, 0, 0, 0}});
    return id;
}

std::size_t
Tracer::openIndex(std::uint64_t id) const
{
    const std::size_t n = _open.size();
    if (n == 0 || id < _open.front().id || id > _open.back().id)
        return n;
    // Ids rise by at least one per position, so op @p id sits at most
    // (id - oldest) positions in -- exactly there when every op is
    // sampled.  Sampling leaves gaps: binary-search below that bound.
    std::size_t hi = std::min<std::uint64_t>(id - _open.front().id, n - 1);
    if (_open[hi].id == id)
        return hi;
    std::size_t lo = 0;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (_open[mid].id < id)
            lo = mid + 1;
        else
            hi = mid;
    }
    return _open[lo].id == id ? lo : n;
}

void
Tracer::evictOldest()
{
    retire(_open.pop().st);
    ++_evictedOps;
}

OpKind
Tracer::kindOf(std::uint64_t id) const
{
    const std::size_t i = openIndex(id);
    return i == _open.size() ? OpKind::Other : _open[i].st.kind;
}

void
Tracer::recordImpl(std::uint64_t id, Span sp, Tick t, std::uint16_t comp,
                   std::uint64_t aux)
{
    ++_recorded;

    // Bounded raw window: drop the oldest half in one move when full.
    // Aggregation below streams regardless, so the breakdown still
    // covers the whole run.
    if (_events.size() >= _eventCap) {
        const std::size_t half = _eventCap / 2 + 1;
        _events.erase(_events.begin(),
                      _events.begin() +
                          static_cast<std::ptrdiff_t>(half));
        _droppedWindow += half;
    }
    _events.push_back(TraceEvent{id, sp, comp, t, aux});

    const std::size_t i = openIndex(id);
    if (i == _open.size()) {
        // The op was evicted (or the id never came from beginOp): the
        // event stays in the raw window but no longer aggregates.
        ++_lateEvents;
        return;
    }
    OpState &st = _open[i].st;
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
        const OpState &st = _open[i].st;
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
        const OpState &st = _open[i].st;
        if (st.kind == kind && st.boundaries >= 2)
            out.push_back(st.last - st.first);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"telegraphos\"}}";

    auto compName = [&](std::uint16_t c) -> std::string {
        return c < _comps.size() ? _comps[c] : "?";
    };

    std::map<std::uint64_t, std::vector<std::size_t>> byOp;
    for (std::size_t i = 0; i < _events.size(); ++i)
        byOp[_events[i].id].push_back(i);

    for (const auto &[id, idxs] : byOp) {
        const char *kind = opKindName(kindOf(id));
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << id << ",\"args\":{\"name\":\"" << kind << "#" << id << "\"}}";
        // First boundary as an instant event, every later boundary as a
        // complete ("X") event spanning from the previous boundary.
        for (std::size_t i = 0; i < idxs.size(); ++i) {
            const TraceEvent &ev = _events[idxs[i]];
            if (i == 0) {
                os << ",\n{\"name\":\"" << spanName(ev.span)
                   << "\",\"cat\":\"" << kind
                   << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
                   << fmt(static_cast<double>(ev.tick) / kTicksPerUs)
                   << ",\"pid\":0,\"tid\":" << id << ",\"args\":{\"comp\":\""
                   << jsonEscape(compName(ev.comp)) << "\"}}";
                continue;
            }
            const TraceEvent &prev = _events[idxs[i - 1]];
            os << ",\n{\"name\":\"" << spanName(ev.span) << "\",\"cat\":\""
               << kind << "\",\"ph\":\"X\",\"ts\":"
               << fmt(static_cast<double>(prev.tick) / kTicksPerUs)
               << ",\"dur\":"
               << fmt(static_cast<double>(ev.tick - prev.tick) / kTicksPerUs)
               << ",\"pid\":0,\"tid\":" << id << ",\"args\":{\"comp\":\""
               << jsonEscape(compName(ev.comp)) << "\",\"aux\":" << ev.aux
               << "}}";
        }
    }
    os << "\n]}\n";
}

void
Tracer::setRetainedEventCap(std::size_t cap)
{
    _eventCap = std::max<std::size_t>(cap, 2);
    if (_events.size() > _eventCap) {
        const std::size_t drop = _events.size() - _eventCap;
        _events.erase(_events.begin(),
                      _events.begin() + static_cast<std::ptrdiff_t>(drop));
        _droppedWindow += drop;
        _events.shrink_to_fit();
    }
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
    std::size_t bytes = _events.capacity() * sizeof(TraceEvent);
    bytes += _open.capacity() * sizeof(OpenOp);
    for (const KindAgg &agg : _agg)
        bytes += agg.exact.capacity() * sizeof(Tick);
    for (const std::string &c : _comps)
        bytes += sizeof(std::string) + c.capacity();
    return bytes;
}

void
Tracer::reset()
{
    _events.clear();
    _events.shrink_to_fit();
    _open = Ring<OpenOp>{};
    for (auto &row : _cells)
        for (auto &cell : row)
            cell = Cell{};
    for (KindAgg &agg : _agg)
        agg = KindAgg{};
    _recorded = _droppedWindow = _evictedOps = _lateEvents = 0;
    _nextId = 1;
}

} // namespace tg::trace
