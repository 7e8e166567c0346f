/**
 * @file
 * HIB atomic unit: remote fetch&inc / compare&swap
 * read-modify-write engine.
 */

#include "hib/atomic_unit.hpp"

namespace tg::hib {

AtomicUnit::AtomicUnit(System &sys, const std::string &name,
                       node::MainMemory &storage)
    : SimObject(sys, name), _storage(storage)
{
    sys.stats().add({_name, "executed"}, &_executed);
}

void
AtomicUnit::request(net::AtomicOp op, PAddr offset, Word a, Word b,
                    Fn<void(Word)> done)
{
    _queue.push(Pending{op, offset, a, b, std::move(done)});
    if (!_busy)
        startNext();
}

void
AtomicUnit::startNext()
{
    if (_queue.empty()) {
        _busy = false;
        return;
    }
    _busy = true;
    Pending p = _queue.pop();

    schedule(config().hibAtomic, [this, p = std::move(p)] {
        const Word old = _storage.read(p.offset);
        switch (p.op) {
          case net::AtomicOp::FetchAndStore:
            _storage.write(p.offset, p.a);
            break;
          case net::AtomicOp::FetchAndInc:
            _storage.write(p.offset, old + p.a);
            break;
          case net::AtomicOp::CompareAndSwap:
            if (old == p.a)
                _storage.write(p.offset, p.b);
            break;
        }
        ++_executed;
        p.done(old);
        startNext();
    });
}

} // namespace tg::hib
