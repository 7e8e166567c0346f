/**
 * @file
 * CPU model: coroutine thread scheduling, load/store issue
 * and the uncached-store write buffer.
 */

#include "node/cpu.hpp"

#include "hib/hib.hpp"
#include "node/address.hpp"

namespace tg::node {

Cpu::Cpu(System &sys, const std::string &name, NodeId node, Mmu &mmu,
         Cache &cache, MainMemory &mem, TurboChannel &tc, hib::Hib &hib)
    : SimObject(sys, name), _node(node), _mmu(mmu), _cache(cache), _mem(mem),
      _tc(tc), _hib(hib)
{
    sys.stats().add({_name, "ops_issued"}, &_opsIssued);
    sys.stats().add({_name, "context_switches"}, &_switches);
    _traceComp = sys.tracer().registerComponent(name);
}

int
Cpu::addThread(AddressSpace *as, std::function<Task<void>()> builder) // tglint: allow(hot-path-std-function)
{
    Thread t;
    t.as = as;
    t.builder = std::move(builder);
    _threads.push_back(std::move(t));
    return static_cast<int>(_threads.size()) - 1;
}

void
Cpu::start()
{
    if (_current < 0)
        scheduleNext();
}

void
Cpu::restoreScheduler(std::size_t finished_threads, std::uint64_t ops_issued,
                      std::uint64_t switches)
{
    if (!_threads.empty())
        panic("%s: restoreScheduler after threads were added",
              _name.c_str());
    for (std::size_t i = 0; i < finished_threads; ++i) {
        Thread t;
        t.info.started = true;
        t.info.finished = true;
        _threads.push_back(std::move(t));
    }
    _opsIssued = ops_issued;
    _switches = switches;
}

bool
Cpu::allDone() const
{
    for (const auto &t : _threads) {
        if (!t.info.finished)
            return false;
    }
    return true;
}

void
Cpu::enablePreemption()
{
    if (_noPreempt == 0)
        panic("%s: enablePreemption underflow", _name.c_str());
    --_noPreempt;
}

bool
Cpu::quantumExpired() const
{
    return _noPreempt == 0 && now() >= _sliceEnd;
}

void
Cpu::setSwitchHook(std::function<void(int)> fn, Tick extra_cost) // tglint: allow(hot-path-std-function)
{
    _switchHook = std::move(fn);
    _switchHookCost = extra_cost;
}

void
Cpu::runThread(int tid)
{
    Thread &t = _threads[tid];
    _current = tid;
    _sliceEnd = now() + config().cpuQuantum;
    _mmu.setAddressSpace(t.as);
    if (_switchHook)
        _switchHook(tid);

    if (!t.info.started) {
        t.info.started = true;
        t.task = t.builder();
        t.task.start([this, tid] { onThreadDone(tid); });
        return;
    }
    if (t.parked) {
        auto go = std::move(t.parked);
        t.parked = nullptr;
        go();
    }
}

void
Cpu::scheduleNext()
{
    // Round-robin starting after the current thread.
    const int n = static_cast<int>(_threads.size());
    const int from = _current < 0 ? 0 : (_current + 1) % n;
    for (int i = 0; i < n; ++i) {
        const int tid = (from + i) % n;
        Thread &t = _threads[tid];
        if (t.info.finished)
            continue;
        if (!t.info.started || t.parked) {
            if (_current >= 0 && _current != tid) {
                ++_switches;
                _cache.invalidateAll(); // pollution model
                schedule(config().contextSwitch + _switchHookCost,
                         [this, tid] { runThread(tid); });
            } else {
                runThread(tid);
            }
            return;
        }
    }
    _current = -1; // idle (a thread may still be blocked inside an op)
}

void
Cpu::onThreadDone(int tid)
{
    _threads[tid].info.finished = true;
    _current = -1;
    scheduleNext();
}

void
Cpu::killCurrent(const std::string &reason)
{
    if (_current < 0)
        panic("%s: killCurrent with no current thread", _name.c_str());
    Thread &t = _threads[_current];
    t.info.finished = true;
    t.info.killed = true;
    t.info.killReason = reason;
    warn("%s: thread %d killed: %s", _name.c_str(), _current,
         reason.c_str());
    t.task = Task<void>{}; // destroy the suspended coroutine frame
    _current = -1;
    scheduleNext();
}

void
Cpu::issue(const CpuOp &op, Word *result, std::coroutine_handle<> h)
{
    if (_current < 0)
        panic("%s: op issued with no running thread", _name.c_str());
    ++_opsIssued;
    const int tid = _current;
    execute(op, result, [this, tid, h] { onOpComplete(tid, h); });
}

void
Cpu::onOpComplete(int tid, std::coroutine_handle<> h)
{
    Thread &t = _threads[tid];
    if (t.info.finished)
        return; // killed while the op was in flight
    if (tid == _current && !quantumExpired()) {
        h.resume();
        return;
    }
    // Quantum expired (or we lost the CPU): park and let the scheduler
    // pick the next runnable thread (keeping _current so the switch is
    // detected and charged).
    t.parked = [h] { h.resume(); };
    scheduleNext();
}

void
Cpu::execute(const CpuOp &op, Word *result, Fn<void()> done)
{
    const Config &cfg = config();

    switch (op.kind) {
      case CpuOp::Kind::Compute:
        schedule(op.ticks + cfg.cpuInstruction, std::move(done));
        return;

      case CpuOp::Kind::Fence:
        // MEMORY_BARRIER: drain the write buffer, then stall until all
        // outstanding remote operations complete (section 2.3.5).
        schedule(cfg.cpuInstruction + cfg.cpuMemIssue,
                 [this, done = std::move(done)]() mutable {
                     const std::uint64_t traceId =
                         _sys.tracer().beginOp(trace::OpKind::Fence);
                     _sys.tracer().record(traceId, trace::Span::CpuIssue,
                                          now(), _traceComp);
                     waitWriteBufferEmpty(
                         [this, done = std::move(done), traceId]() mutable {
                             _hib.fence(std::move(done), traceId);
                         });
                 });
        return;

      case CpuOp::Kind::Read:
      case CpuOp::Kind::Write:
        break;
    }

    const bool is_write = op.kind == CpuOp::Kind::Write;
    Translation t = _mmu.translate(op.va, is_write);
    const Tick charge = cfg.cpuInstruction + cfg.cpuMemIssue + t.ticks;

    if (!t.ok) {
        // Page fault / protection violation: hand to the OS.
        schedule(charge, [this, op, result, done = std::move(done)]() mutable {
            // The fault handler is a copyable std::function, so the
            // move-only completion rides in a shared_ptr (cold path).
            auto shared = std::make_shared<Fn<void()>>(std::move(done));
            auto retry = [this, op, result, shared] {
                execute(op, result, std::move(*shared));
            };
            auto kill = [this](std::string reason) {
                killCurrent(reason);
            };
            if (_faultHandler)
                _faultHandler(op.va, op.kind == CpuOp::Kind::Write,
                              std::move(retry), std::move(kill));
            else
                killCurrent("unhandled fault");
        });
        return;
    }

    performAccess(op, t, result, charge, std::move(done));
}

void
Cpu::performAccess(const CpuOp &op, const Translation &t, Word *result,
                   Tick charge, Fn<void()> done)
{
    const Config &cfg = config();
    const bool is_write = op.kind == CpuOp::Kind::Write;
    const PAddr pa = t.paddr;
    const PAddr offset = offsetOf(pa);

    // Shadow store: communicate a physical address to the HIB (2.2.4).
    // An uncached store, so it completes into the write buffer.
    if (t.shadow) {
        schedule(charge, [this, pa, op, done = std::move(done)]() mutable {
            bufferStore(pa, op.value, std::move(done));
        });
        return;
    }

    switch (t.pte.mode) {
      case PageMode::Private: {
        const Tick lat = _cache.access(pa, is_write);
        if (is_write) {
            schedule(charge + lat,
                     [this, offset, v = op.value, done = std::move(done)] {
                         _mem.write(offset, v);
                         done();
                     });
        } else {
            schedule(charge + lat,
                     [this, offset, result, done = std::move(done)] {
                         *result = _mem.read(offset);
                         done();
                     });
        }
        return;
      }

      case PageMode::SharedLocal: {
        if (cfg.prototype == Prototype::TelegraphosI) {
            // Shared data lives in HIB SRAM: every access crosses the TC.
            // Accesses drain the write buffer first to preserve the order
            // of launch sequences against buffered argument stores.
            if (is_write) {
                schedule(charge, [this, offset, pa, op,
                                  done = std::move(done)]() mutable {
                    waitWriteBufferEmpty([this, offset, pa, op,
                                          done = std::move(done)]() mutable {
                        _tc.transact(
                            config().cpuUncachedOverhead +
                                config().tcWriteTxn(2),
                            [this, offset, pa, op,
                             done = std::move(done)]() mutable {
                                if (_hib.specialOps().specialMode()) {
                                    // Special mode: the store is an
                                    // argument-passing command (2.2.4).
                                    _hib.shadowStore(pa, op.value,
                                                     std::move(done));
                                    return;
                                }
                                _hib.cpuLocalShmWrite(
                                    offset, op.value,
                                    [this, pa, op,
                                     done = std::move(done)]() mutable {
                                        _hib.localSharedWrite(
                                            pa, op.value, std::move(done));
                                    });
                            });
                    });
                });
            } else {
                schedule(charge, [this, offset, result,
                                  done = std::move(done)]() mutable {
                    waitWriteBufferEmpty([this, offset, result,
                                          done = std::move(done)]() mutable {
                        _tc.transact(
                            config().cpuUncachedOverhead +
                                config().tcReadTxn(),
                            [this, offset, result,
                             done = std::move(done)]() mutable {
                                _hib.cpuLocalShmRead(
                                    offset,
                                    [result,
                                     done = std::move(done)](Word v) mutable {
                                        *result = v;
                                        done();
                                    });
                            });
                    });
                });
            }
        } else {
            // Telegraphos II: shared data in (uncached) main memory.
            // The functional apply happens inside localSharedWrite so
            // protocol-managed pages update at the right moment.
            if (is_write) {
                schedule(charge + cfg.memAccess,
                         [this, pa, op, done = std::move(done)]() mutable {
                             if (_hib.specialOps().specialMode()) {
                                 _hib.shadowStore(pa, op.value,
                                                  std::move(done));
                                 return;
                             }
                             _hib.localSharedWrite(pa, op.value,
                                                   std::move(done));
                         });
            } else {
                schedule(charge + cfg.memAccess,
                         [this, offset, result, done = std::move(done)] {
                             *result = _mem.read(offset);
                             done();
                         });
            }
        }
        return;
      }

      case PageMode::SharedRemote: {
        if (t.pte.counted)
            _hib.countRemoteAccess(pa - (pa % cfg.pageBytes), is_write);
        if (is_write) {
            // Non-blocking: the store completes into the write buffer;
            // the drain engine performs the TC transaction (2.2.1).
            schedule(charge, [this, pa, op, done = std::move(done)]() mutable {
                const std::uint64_t traceId =
                    _sys.tracer().beginOp(trace::OpKind::RemoteWrite);
                _sys.tracer().record(traceId, trace::Span::CpuIssue, now(),
                                     _traceComp);
                bufferStore(pa, op.value, std::move(done), traceId);
            });
        } else {
            // Blocking: drain buffered stores, then hold the read until
            // the reply returns from the remote node.
            schedule(charge, [this, pa, result,
                              done = std::move(done)]() mutable {
                const std::uint64_t traceId =
                    _sys.tracer().beginOp(trace::OpKind::RemoteRead);
                _sys.tracer().record(traceId, trace::Span::CpuIssue, now(),
                                     _traceComp);
                waitWriteBufferEmpty([this, pa, result,
                                      done = std::move(done),
                                      traceId]() mutable {
                    _tc.transact(
                        config().cpuUncachedOverhead + config().tcReadTxn(),
                        [this, pa, result, done = std::move(done),
                         traceId]() mutable {
                            _hib.cpuRemoteRead(
                                pa,
                                [result,
                                 done = std::move(done)](Word v) mutable {
                                    *result = v;
                                    done();
                                },
                                traceId);
                        },
                        traceId);
                });
            });
        }
        return;
      }

      case PageMode::HibControl: {
        if (is_write) {
            schedule(charge, [this, pa, op, done = std::move(done)]() mutable {
                bufferStore(pa, op.value, std::move(done));
            });
        } else {
            schedule(charge, [this, offset, result,
                              done = std::move(done)]() mutable {
                waitWriteBufferEmpty([this, offset, result,
                                      done = std::move(done)]() mutable {
                    _tc.transact(
                        config().cpuUncachedOverhead + config().tcReadTxn(),
                        [this, offset, result,
                         done = std::move(done)]() mutable {
                            _hib.regRead(
                                offset,
                                [result,
                                 done = std::move(done)](Word v) mutable {
                                    *result = v;
                                    done();
                                });
                        });
                });
            });
        }
        return;
      }

      case PageMode::VsmAbsent: {
        // Not present: fault into the VSM layer.
        schedule(charge, [this, op, result, done = std::move(done)]() mutable {
            auto shared = std::make_shared<Fn<void()>>(std::move(done));
            auto retry = [this, op, result, shared] {
                execute(op, result, std::move(*shared));
            };
            auto kill = [this](std::string reason) {
                killCurrent(reason);
            };
            if (_faultHandler)
                _faultHandler(op.va, op.kind == CpuOp::Kind::Write,
                              std::move(retry), std::move(kill));
            else
                killCurrent("VSM access with no handler");
        });
        return;
      }

      case PageMode::Invalid:
        break;
    }
    panic("%s: access to invalid page mode", _name.c_str());
}

// ---------------------------------------------------------------------
// Write buffer
// ---------------------------------------------------------------------

void
Cpu::bufferStore(PAddr pa, Word value, Fn<void()> done,
                 std::uint64_t traceId)
{
    if (_writeBuffer.size() >= config().writeBufferEntries) {
        // Buffer full: the store stalls until the drain engine retires an
        // entry.  (Only one thread runs at a time, so one waiter slot.)
        if (_wbInsertWaiter)
            panic("%s: concurrent write-buffer stalls", _name.c_str());
        _wbInsertWaiter = [this, pa, value, traceId,
                           done = std::move(done)]() mutable {
            bufferStore(pa, value, std::move(done), traceId);
        };
        return;
    }
    _writeBuffer.push_back(BufferedStore{pa, value, traceId});
    schedule(config().writeBufferInsert, std::move(done));
    drainWriteBuffer();
}

void
Cpu::dispatchStore(const BufferedStore &s)
{
    if (isShadow(s.pa)) {
        _hib.shadowStore(stripShadow(s.pa), s.value, [] {});
        return;
    }
    const PAddr offset = offsetOf(s.pa);
    if (regionOf(offset) == Region::HibReg) {
        _hib.regWrite(offset, s.value, [] {});
        return;
    }
    if (_hib.specialOps().specialMode()) {
        // Telegraphos I special mode: stores to shared space communicate
        // addresses instead of being performed (2.2.4).
        _hib.shadowStore(s.pa, s.value, [] {});
        return;
    }
    _hib.cpuRemoteWrite(s.pa, s.value, [] {}, s.traceId);
}

void
Cpu::drainWriteBuffer()
{
    if (_draining)
        return;
    if (_writeBuffer.empty()) {
        if (!_wbEmptyWaiters.empty()) {
            auto waiters = std::move(_wbEmptyWaiters);
            _wbEmptyWaiters.clear();
            for (auto &w : waiters)
                w();
        }
        return;
    }
    _draining = true;
    // HIB back-pressure first (its internal queue may be full), then the
    // TurboChannel transaction retires the entry.
    _hib.waitWriteSpace([this] {
        // Entries retire FIFO and only one drain runs at a time, so the
        // front entry at grant time is the one this transaction carries.
        _tc.transact(
            config().tcWriteTxn(2),
            [this] {
                const BufferedStore s = _writeBuffer.front();
                _writeBuffer.pop_front();
                dispatchStore(s);
                _draining = false;
                if (_wbInsertWaiter) {
                    auto w = std::move(_wbInsertWaiter);
                    _wbInsertWaiter = nullptr;
                    w();
                }
                drainWriteBuffer();
            },
            _writeBuffer.front().traceId);
    });
}

void
Cpu::waitWriteBufferEmpty(Fn<void()> cb)
{
    if (_writeBuffer.empty() && !_draining) {
        cb();
        return;
    }
    _wbEmptyWaiters.push_back(std::move(cb));
}

} // namespace tg::node
