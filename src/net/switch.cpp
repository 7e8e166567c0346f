/**
 * @file
 * Cut-through switch with shared-buffer output queues.
 */

#include "net/switch.hpp"

#include <bit>

namespace tg::net {

Switch::Switch(System &sys, const std::string &name, SwitchTotals &totals,
               std::size_t ports, std::size_t vcs)
    : SimObject(sys, name), _totals(totals), _ports(ports), _vcs(vcs),
      _arena(&sys.arena()), _busy(ports * vcs, false),
      _maskWords((ports * vcs + 63) / 64)
{
    if (vcs == 0)
        fatal("%s: need at least one VC", name.c_str());
    const std::size_t cap = config().switchQueuePackets;
    _in.reserve(ports * vcs);
    _out.reserve(ports * vcs);
    _waiters.assign(ports * vcs * _maskWords, 0);
    for (std::size_t p = 0; p < ports; ++p) {
        for (std::size_t v = 0; v < vcs; ++v) {
            _in.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _out.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _in.back()->onData([this, p, v] { pump(p, v); });
            _out.back()->onSpace(
                [this, o = idx(p, v)] { wakeWaiters(o); });
        }
    }
}

void
Switch::setRoute(NodeId node, std::size_t port)
{
    if (port >= _ports)
        fatal("%s: route to port %zu of %zu", _name.c_str(), port, _ports);
    if (_routes.size() <= node)
        _routes.resize(node + 1, SIZE_MAX);
    _routes[node] = port;
}

void
Switch::applyRoutes(std::vector<std::size_t> routes)
{
    for (std::size_t p : routes)
        if (p != SIZE_MAX && p >= _ports)
            fatal("%s: epoch route to port %zu of %zu", _name.c_str(), p,
                  _ports);
    _routes = std::move(routes);
    pumpAll();
}

std::size_t
Switch::route(NodeId node) const
{
    if (node >= _routes.size() || _routes[node] == SIZE_MAX)
        panic("%s: no route for node %u", _name.c_str(), unsigned(node));
    return _routes[node];
}

void
Switch::pumpAll()
{
    for (std::size_t p = 0; p < _ports; ++p)
        for (std::size_t v = 0; v < _vcs; ++v)
            pump(p, v);
}

void
Switch::wakeWaiters(std::size_t out)
{
    // Take each mask word and clear it before pumping, so an input that
    // blocks again re-marks itself for the next drain.  An input only
    // ever marks its own bit, so word-at-a-time equals a whole-mask
    // snapshot, in ascending input index.
    std::uint64_t *mask = &_waiters[out * _maskWords];
    for (std::size_t w = 0; w < _maskWords; ++w) {
        std::uint64_t bits = mask[w];
        mask[w] = 0;
        while (bits != 0) {
            const std::size_t i =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            pump(i / _vcs, i % _vcs);
        }
    }
}

void
Switch::pump(std::size_t port, std::size_t vc)
{
    ++_totals.headEvals;
    BoundedQueue &in = *_in[idx(port, vc)];
    if (_busy[idx(port, vc)] || in.empty())
        return;

    // Arbitration reads only the per-hop fields at the front of the
    // arena slot; the cold packet body is never touched on the switch
    // path (DESIGN.md section 14).
    const Packet &head = _arena->packet(in.frontHandle());
    const std::size_t out = _routeFn ? _routeFn(head) : route(head.dst);
    if (out >= _ports)
        panic("%s: route produced port %zu of %zu", _name.c_str(), out,
              _ports);
    const std::uint8_t out_vc =
        _vcMap ? _vcMap(head, port, out, std::uint8_t(vc))
               : std::uint8_t(vc);
    if (out_vc >= _vcs)
        panic("%s: VC map produced vc %u of %zu", _name.c_str(),
              unsigned(out_vc), _vcs);

    BoundedQueue &oq = *_out[idx(out, out_vc)];
    if (!oq.reserve()) {
        // Back-pressure: wait for the (VC-private) output buffer.
        const std::size_t i = idx(port, vc);
        _waiters[idx(out, out_vc) * _maskWords + i / 64] |=
            std::uint64_t(1) << (i % 64);
        return;
    }

    _busy[idx(port, vc)] = true;
    schedule(config().switchLatency, [this, port, vc, out, out_vc] {
        const PacketHandle h = _in[idx(port, vc)]->popHandle();
        Packet &p = _arena->packet(h);
        p.vc = out_vc;
        ++_totals.forwarded;
        _sys.tracer().record(p.traceId, trace::Span::SwitchFwd, now());
        _out[idx(out, out_vc)]->pushReservedHandle(h);
        _busy[idx(port, vc)] = false;
        pump(port, vc);
    });
}

} // namespace tg::net
