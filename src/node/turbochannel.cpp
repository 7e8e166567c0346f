/**
 * @file
 * TurboChannel I/O bus model: arbitration and
 * programmed-I/O transaction timing.
 */

#include "node/turbochannel.hpp"

namespace tg::node {

TurboChannel::TurboChannel(System &sys, const std::string &name)
    : SimObject(sys, name)
{
    auto &reg = sys.stats();
    reg.add({_name, "transactions"}, &_count);
    reg.add({_name, "busy_ticks"}, &_busyTicks);
    reg.add({_name, "wait_ticks"}, &_waitTicks);
    reg.add({_name, "wait_hist"}, &_waitHist);
}

void
TurboChannel::transact(Tick hold, Fn<void()> done,
                       std::uint64_t traceId)
{
    _queue.push(Txn{hold, now(), std::move(done), traceId});
    if (!_busy)
        grantNext();
}

void
TurboChannel::grantNext()
{
    if (_queue.empty()) {
        _busy = false;
        return;
    }
    _busy = true;
    Txn txn = _queue.pop();
    _waitTicks += now() - txn.enqueued;
    _busyTicks += txn.hold;
    _waitHist.sample(static_cast<double>(now() - txn.enqueued));
    _sys.tracer().record(txn.traceId, trace::Span::TcGrant, now());

    schedule(txn.hold, [this, done = std::move(txn.done)] {
        ++_count;
        done();
        grantNext();
    });
}

} // namespace tg::node
