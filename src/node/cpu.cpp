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
Cpu::restoreScheduler(std::size_t finished_threads)
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
    execute(op, result, [this, tid, h, result] {
        // What the program observes: which node, when, and the value.
        audit::TraceHash &model = system().model();
        model.mix(_node);
        model.mix(now());
        model.mix(*result);
        onOpComplete(tid, h);
    });
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
                         openOp(trace::OpKind::Fence);
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
        trapToOs(op, result, charge, std::move(done), "unhandled fault");
        return;
    }

    performAccess(op, t, result, charge, std::move(done));
}

void
Cpu::trapToOs(const CpuOp &op, Word *result, Tick charge, Fn<void()> done,
              const char *unhandled)
{
    schedule(charge, [this, op, result, done = std::move(done),
                      unhandled]() mutable {
        // The fault handler is a copyable std::function, so the
        // move-only completion rides in a shared_ptr (cold path).
        auto shared = std::make_shared<Fn<void()>>(std::move(done));
        auto retry = [this, op, result, shared] {
            execute(op, result, std::move(*shared));
        };
        auto kill = [this](std::string reason) { killCurrent(reason); };
        if (_faultHandler)
            _faultHandler(op.va, op.kind == CpuOp::Kind::Write,
                          std::move(retry), std::move(kill));
        else
            killCurrent(unhandled);
    });
}

void
Cpu::performAccess(const CpuOp &op, const Translation &t, Word *result,
                   Tick charge, Fn<void()> done)
{
    const Config &cfg = config();
    const bool is_write = op.kind == CpuOp::Kind::Write;
    const PAddr pa = t.paddr;
    const PageMode mode = t.pte.mode;
    // A store through shadow space passes an argument to the HIB (2.2.4):
    // an uncached store, whatever the page mode.
    const bool shadow = isShadow(pa);

    if (mode == PageMode::VsmAbsent) {
        // Not present: fault into the VSM layer.
        trapToOs(op, result, charge, std::move(done),
                 "VSM access with no handler");
        return;
    }
    if (mode == PageMode::Invalid)
        panic("%s: access to invalid page mode", _name.c_str());

    // Private pages go through the cache.  Telegraphos II keeps shared
    // data in uncached main memory (Telegraphos I in HIB SRAM, below).
    const bool shared = mode == PageMode::SharedLocal;
    if (!shadow && (mode == PageMode::Private ||
                    (shared && cfg.prototype == Prototype::TelegraphosII))) {
        const Tick lat = shared ? cfg.memAccess : _cache.access(pa);
        const PAddr offset = offsetOf(pa);
        if (!is_write) {
            schedule(charge + lat,
                     [this, offset, result, done = std::move(done)] {
                         *result = _mem.read(offset);
                         done();
                     });
        } else if (shared) {
            // The HIB applies a shared store itself, so protocol-managed
            // pages update at the protocol-defined moment.
            schedule(charge + lat, [this, pa, v = op.value,
                                    done = std::move(done)]() mutable {
                _hib.store(pa, v, std::move(done));
            });
        } else {
            schedule(charge + lat,
                     [this, offset, v = op.value, done = std::move(done)] {
                         _mem.write(offset, v);
                         done();
                     });
        }
        return;
    }

    // Uncached accesses the HIB decodes: remote, register and shadow
    // addresses, and Telegraphos I shared data.
    const bool remote = !shadow && mode == PageMode::SharedRemote;
    if (remote && t.pte.counted)
        _hib.countRemoteAccess(pa - (pa % cfg.pageBytes), is_write);
    if (is_write && (shadow || !shared)) {
        // Non-blocking (2.2.1): the store completes into the write
        // buffer, and the drain engine performs the TC transaction.
        schedule(charge, [this, pa, v = op.value, remote,
                          done = std::move(done)]() mutable {
            const std::uint64_t traceId =
                remote ? openOp(trace::OpKind::RemoteWrite) : 0;
            bufferStore(pa, v, std::move(done), traceId);
        });
        return;
    }
    blockingAccess(op, pa, result, charge, remote, std::move(done));
}

void
Cpu::blockingAccess(const CpuOp &op, PAddr pa, Word *result, Tick charge,
                    bool remote, Fn<void()> done)
{
    const bool is_write = op.kind == CpuOp::Kind::Write;
    schedule(charge, [this, is_write, pa, v = op.value, result, remote,
                      done = std::move(done)]() mutable {
        const std::uint64_t traceId =
            remote ? openOp(is_write ? trace::OpKind::RemoteWrite
                                     : trace::OpKind::RemoteRead)
                   : 0;
        // Drain buffered stores first: they precede this access, and a
        // launch sequence's argument stores must reach the HIB before it.
        waitWriteBufferEmpty([this, is_write, pa, v, result,
                              done = std::move(done), traceId]() mutable {
            const Config &cfg = config();
            _tc.transact(
                cfg.cpuUncachedOverhead +
                    (is_write ? cfg.tcWriteTxn(2) : cfg.tcReadTxn()),
                [this, is_write, pa, v, result, done = std::move(done),
                 traceId]() mutable {
                    if (is_write) {
                        _hib.store(pa, v, std::move(done), traceId);
                        return;
                    }
                    _hib.load(pa,
                              [result, done = std::move(done)](Word w) {
                                  *result = w;
                                  done();
                              },
                              traceId);
                },
                traceId);
        });
    });
}

std::uint64_t
Cpu::openOp(trace::OpKind kind)
{
    const std::uint64_t traceId = _sys.tracer().beginOp(kind);
    _sys.tracer().record(traceId, trace::Span::CpuIssue, now());
    return traceId;
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
    _writeBuffer.push(BufferedStore{pa, value, traceId});
    schedule(config().writeBufferInsert, std::move(done));
    drainWriteBuffer();
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
                const BufferedStore s = _writeBuffer.pop();
                // The processor was released when the store entered the
                // buffer, so nothing waits on the HIB's completion and
                // none is passed.
                _hib.store(s.pa, s.value, {}, s.traceId);
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
