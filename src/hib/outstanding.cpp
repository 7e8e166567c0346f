/**
 * @file
 * Outstanding-operation counter + fence waiter queue.
 */

#include "hib/outstanding.hpp"

#include "sim/invariant.hpp"

namespace tg::hib {

Outstanding::Outstanding(System &sys, const std::string &name)
    : SimObject(sys, name)
{
    auto &reg = sys.stats();
    reg.add({_name, "peak"}, &_peak);
    reg.add({_name, "total"}, &_total);
    reg.add({_name, "lost"}, &_lost);
    _traceComp = sys.tracer().registerComponent(name);
}

void
Outstanding::add(std::uint64_t n)
{
    _current += n;
    _total += n;
    if (_current > _peak)
        _peak = _current;
}

void
Outstanding::complete(std::uint64_t n)
{
    if (n > _current)
        panic("%s: completing %llu ops with only %llu outstanding",
              _name.c_str(), (unsigned long long)n,
              (unsigned long long)_current);
    _current -= n;
    // Conservation: every op ever tracked is outstanding, completed or
    // lost; the counter can never exceed what was launched.
    TG_AUDIT(_current + _lost <= _total,
             "%s: outstanding conservation violated: current=%llu lost=%llu "
             "total=%llu",
             _name.c_str(), (unsigned long long)_current,
             (unsigned long long)_lost, (unsigned long long)_total);
    wakeWaiters();
}

std::uint64_t
Outstanding::drainLost(std::uint64_t n)
{
    const std::uint64_t drained = n < _current ? n : _current;
    if (drained < n)
        warn("%s: loss path drained %llu of %llu (counter at zero)",
             _name.c_str(), (unsigned long long)drained,
             (unsigned long long)n);
    _current -= drained;
    _lost += drained;
    wakeWaiters();
    return drained;
}

void
Outstanding::wakeWaiters()
{
    if (_draining)
        return;
    // One waiter at a time, re-checking the counter before each: a woken
    // fence may launch new remote operations (or register a new fence),
    // and later waiters must then keep waiting rather than fire while the
    // counter is non-zero.
    _draining = true;
    while (_current == 0 && !_waiters.empty()) {
        auto w = _waiters.pop();
        w();
    }
    _draining = false;
}

void
Outstanding::waitDrain(Fn<void()> cb, std::uint64_t traceId)
{
    _sys.tracer().record(traceId, trace::Span::FenceStart, now(),
                         _traceComp, _current);
    if (_current == 0 && !_draining) {
        _sys.tracer().record(traceId, trace::Span::FenceWake, now(),
                             _traceComp);
        cb();
        return;
    }
    // If a drain is in progress this queues behind the waiter currently
    // running (FIFO even for re-entrant registrations); the drain loop
    // picks it up once that waiter returns, provided the counter is
    // still zero.
    if (traceId != 0 && _sys.tracer().enabled()) {
        _waiters.push([this, traceId, cb = std::move(cb)] {
            _sys.tracer().record(traceId, trace::Span::FenceWake, now(),
                                 _traceComp);
            cb();
        });
    } else {
        _waiters.push(std::move(cb));
    }
}

} // namespace tg::hib
