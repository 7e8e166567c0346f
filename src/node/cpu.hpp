/**
 * @file
 * CPU timing model (DEC Alpha 21064-class) driving coroutine programs.
 *
 * Simulated programs are C++20 coroutines that co_await CpuOps.  The Cpu
 * charges per-instruction costs, translates addresses through the Mmu,
 * and sends each access to the cache/main memory, the fault handler, or
 * the HIB as an uncached load or store over the TurboChannel.  The CPU
 * decides only whether an uncached access is buffered or blocking; the
 * HIB decodes its address (Hib::load / Hib::store).  Multiple threads
 * time-share the CPU with a round-robin quantum; preemption can be
 * disabled to model PAL-code sequences (paper section 2.2.4).
 */

#ifndef TELEGRAPHOS_NODE_CPU_HPP
#define TELEGRAPHOS_NODE_CPU_HPP

#include <coroutine>
#include <functional>
#include <string>
#include <vector>

#include "node/cache.hpp"
#include "node/main_memory.hpp"
#include "node/mmu.hpp"
#include "node/turbochannel.hpp"
#include "sim/event.hpp"
#include "sim/ring.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace tg::hib {
class Hib;
}

namespace tg::node {

/** One operation issued by a simulated program. */
struct CpuOp
{
    enum class Kind : std::uint8_t
    {
        Read,    ///< load of one 64-bit word
        Write,   ///< store of one 64-bit word
        Compute, ///< pure computation for `ticks`
        Fence,   ///< MEMORY_BARRIER: drain outstanding remote ops (2.3.5)
    };

    Kind kind = Kind::Compute;
    VAddr va = 0;
    Word value = 0;
    Tick ticks = 0;
};

/** The processor of one workstation. */
class Cpu : public SimObject
{
  public:
    /**
     * Fault handler: (va, is_write, retry, kill).  Installed by the OS;
     * it either repairs the mapping and calls retry, or kills the thread.
     * Cold path (faults trap to software anyway), so std::function is
     * fine here.  tglint: allow(hot-path-std-function)
     */
    using FaultHandler =
        std::function<void(VAddr, bool, std::function<void()>, // tglint: allow(hot-path-std-function)
                           std::function<void(std::string)>)>; // tglint: allow(hot-path-std-function)

    Cpu(System &sys, const std::string &name, NodeId node, Mmu &mmu,
        Cache &cache, MainMemory &mem, TurboChannel &tc, hib::Hib &hib);

    NodeId nodeId() const { return _node; }
    Mmu &mmu() { return _mmu; }

    // ------------------------------------------------------------------
    // Thread management
    // ------------------------------------------------------------------

    /** Outcome of one thread. */
    struct ThreadInfo
    {
        bool started = false;
        bool finished = false;
        bool killed = false;
        std::string killReason;
    };

    /**
     * Register a thread.  @p builder creates the coroutine when the
     * thread is first scheduled (it must bind whatever context it needs).
     */
    int addThread(AddressSpace *as, std::function<Task<void>()> builder); // tglint: allow(hot-path-std-function)

    /** Begin executing registered threads. */
    void start();

    const ThreadInfo &threadInfo(int tid) const { return _threads[tid].info; }
    std::size_t numThreads() const { return _threads.size(); }
    bool allDone() const;

    /** PAL-code support: while disabled, the quantum never preempts. */
    void disablePreemption() { ++_noPreempt; }
    void enablePreemption();

    /**
     * OS context-switch hook (FLASH-style PID maintenance, paper
     * section 2.2.5): @p fn runs whenever a thread is given the CPU;
     * @p extra_cost is added to every context-switch delay (the
     * interrupt-handler work of saving/restoring the NI register).
     */
    void setSwitchHook(std::function<void(int)> fn, Tick extra_cost); // tglint: allow(hot-path-std-function)

    void setFaultHandler(FaultHandler h) { _faultHandler = std::move(h); }

    // ------------------------------------------------------------------
    // Operation issue (called from OpAwaiter)
    // ------------------------------------------------------------------

    /**
     * Execute @p op on behalf of the current thread; resume @p h with the
     * result stored in @p *result when it completes.
     */
    void issue(const CpuOp &op, Word *result, std::coroutine_handle<> h);

    /** Kill the current thread (protection violation etc.). */
    void killCurrent(const std::string &reason);

    // Stats
    std::uint64_t opsIssued() const { return _opsIssued; }
    std::uint64_t contextSwitches() const { return _switches; }

    /**
     * Checkpoint restore (DESIGN.md section 14.5): pad the thread table
     * with @p finished_threads already-finished placeholder slots so
     * post-restore spawns get the same thread ids as in the original
     * run (the round-robin walk and the PID switch hook are keyed by
     * tid).
     */
    void restoreScheduler(std::size_t finished_threads);

  private:
    struct Thread
    {
        AddressSpace *as = nullptr;
        std::function<Task<void>()> builder; // tglint: allow(hot-path-std-function)
        Task<void> task;
        ThreadInfo info;
        Fn<void()> parked; ///< pending resume when preempted
    };

    /** Perform @p op; @p done runs at completion (result already stored). */
    void execute(const CpuOp &op, Word *result, Fn<void()> done);

    /** Decide how a translated load or store is performed: through the
     *  cache, into uncached memory, into the write buffer, or as one
     *  blocking TC transaction (blockingAccess). */
    void performAccess(const CpuOp &op, const Translation &t, Word *result,
                       Tick charge, Fn<void()> done);

    /** After @p charge: drain the write buffer, run one TC transaction
     *  (the uncached overhead plus a read or write transaction), then
     *  hand the access to Hib::load or Hib::store.  @p remote opens a
     *  lifecycle-tracer op for it. */
    void blockingAccess(const CpuOp &op, PAddr pa, Word *result,
                        Tick charge, bool remote, Fn<void()> done);

    /** Open a lifecycle-tracer op of @p kind issued now. */
    std::uint64_t openOp(trace::OpKind kind);

    /** After @p charge, trap @p op to the OS fault handler, which may
     *  retry it or kill the thread; with no handler installed the thread
     *  dies with @p unhandled. */
    void trapToOs(const CpuOp &op, Word *result, Tick charge,
                  Fn<void()> done, const char *unhandled);

    // ------------------------------------------------------------------
    // Uncached-store write buffer (Alpha 21064: 4 entries).  I/O-space
    // stores complete into the buffer; a drain engine issues them over
    // the TurboChannel in order.  Uncached loads and fences drain first.
    // ------------------------------------------------------------------

    struct BufferedStore
    {
        PAddr pa; ///< full physical address (may carry the shadow bit)
        Word value;
        std::uint64_t traceId = 0; ///< lifecycle-tracer op (0 = untraced)
    };

    /** Insert an uncached store (stalls when the buffer is full). */
    void bufferStore(PAddr pa, Word value, Fn<void()> done,
                     std::uint64_t traceId = 0);

    /** Issue buffered stores over the TC, oldest first. */
    void drainWriteBuffer();

    /** Run @p cb once the write buffer has fully drained. */
    void waitWriteBufferEmpty(Fn<void()> cb);

    void onOpComplete(int tid, std::coroutine_handle<> h);
    void onThreadDone(int tid);

    /** Pick and run the next runnable thread (round-robin). */
    void scheduleNext();
    void runThread(int tid);
    bool quantumExpired() const;

    NodeId _node;
    Mmu &_mmu;
    Cache &_cache;
    MainMemory &_mem;
    TurboChannel &_tc;
    hib::Hib &_hib;

    Ring<BufferedStore> _writeBuffer;
    bool _draining = false;
    Fn<void()> _wbInsertWaiter;
    std::vector<Fn<void()>> _wbEmptyWaiters;

    std::vector<Thread> _threads;
    int _current = -1;
    Tick _sliceEnd = 0;
    int _noPreempt = 0;
    FaultHandler _faultHandler;
    std::function<void(int)> _switchHook; // tglint: allow(hot-path-std-function)
    Tick _switchHookCost = 0;

    std::uint64_t _opsIssued = 0;
    std::uint64_t _switches = 0;
};

/** Awaitable wrapping one CpuOp (used by the api::Ctx helpers). */
struct OpAwaiter
{
    Cpu *cpu;
    CpuOp op;
    Word result = 0;

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        cpu->issue(op, &result, h);
    }

    Word await_resume() const { return result; }
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_CPU_HPP
