/**
 * @file
 * Cut-through switch with shared-buffer output queues.
 */

#include "net/switch.hpp"

namespace tg::net {

Switch::Switch(System &sys, const std::string &name, std::size_t ports,
               std::size_t vcs)
    : SimObject(sys, name), _ports(ports), _vcs(vcs),
      _arena(&sys.arena()), _busy(ports * vcs, false)
{
    if (vcs == 0)
        fatal("%s: need at least one VC", name.c_str());
    const std::size_t cap = config().switchQueuePackets;
    _in.reserve(ports * vcs);
    _out.reserve(ports * vcs);
    for (std::size_t p = 0; p < ports; ++p) {
        for (std::size_t v = 0; v < vcs; ++v) {
            _in.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _out.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _in.back()->onData([this, p, v] { pump(p, v); });
            // An input may be stalled on a full output; wake everything
            // when any output drains (inputs re-check their own head).
            _out.back()->onSpace([this] { pumpAll(); });
        }
    }
    _traceComp = sys.tracer().registerComponent(name);
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
Switch::pump(std::size_t port, std::size_t vc)
{
    BoundedQueue &in = *_in[idx(port, vc)];
    if (_busy[idx(port, vc)] || in.empty())
        return;

    // Arbitration reads only the arena's SoA hot fields; the cold packet
    // body is never touched on the switch path (DESIGN.md section 14).
    const PacketHandle head = in.frontHandle();
    const std::size_t out = _routeFn ? _routeFn(_arena->hot(head))
                                     : route(_arena->dst(head));
    if (out >= _ports)
        panic("%s: route produced port %zu of %zu", _name.c_str(), out,
              _ports);
    const std::uint8_t out_vc =
        _vcMap ? _vcMap(_arena->hot(head), port, out, std::uint8_t(vc))
               : std::uint8_t(vc);
    if (out_vc >= _vcs)
        panic("%s: VC map produced vc %u of %zu", _name.c_str(),
              unsigned(out_vc), _vcs);

    BoundedQueue &oq = *_out[idx(out, out_vc)];
    if (!oq.reserve())
        return; // back-pressure: wait for the (VC-private) output buffer

    _busy[idx(port, vc)] = true;
    schedule(config().switchLatency, [this, port, vc, out, out_vc] {
        const PacketHandle h = _in[idx(port, vc)]->popHandle();
        _arena->setVc(h, out_vc);
        const std::uint8_t hops = _arena->bumpHops(h);
        ++_forwarded;
        _sys.tracer().record(_arena->traceId(h), trace::Span::SwitchFwd,
                             now(), _traceComp, hops);
        _out[idx(out, out_vc)]->pushReservedHandle(h);
        _busy[idx(port, vc)] = false;
        pump(port, vc);
    });
}

} // namespace tg::net
