/**
 * @file
 * Ctx: the per-program handle to Telegraphos operations.
 *
 * Programs are coroutines receiving a Ctx&.  Plain loads/stores map to
 * single awaited operations; atomic and copy operations are *special
 * operations* launched by the multi-instruction sequences of paper
 * section 2.2.4 — through PAL-protected special mode on Telegraphos I,
 * through contexts + keys + shadow addressing on Telegraphos II, or
 * through an OS trap (the baseline the paper argues against).
 */

#ifndef TELEGRAPHOS_API_CONTEXT_HPP
#define TELEGRAPHOS_API_CONTEXT_HPP

#include <type_traits>

#include "api/result.hpp"
#include "hib/special_ops.hpp"
#include "node/address.hpp"
#include "node/cpu.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace tg {

class Cluster;
class Ctx;

/** How special operations are launched (experiment A1 sweeps this). */
enum class LaunchMode
{
    Default,  ///< follow the prototype (I -> Pal, II -> Contexts)
    Pal,      ///< Telegraphos I: special mode inside PAL code
    Contexts, ///< Telegraphos II: contexts + keys + shadow addressing
    OsTrap,   ///< trap into the kernel for every special op (baseline)
    FlashPid, ///< FLASH-style: a PID register the OS must maintain (2.2.5)
};

/** Shadow virtual address of @p va (differs only in the highest bit). */
constexpr VAddr
shadowOf(VAddr va)
{
    return va | node::kShadowBit;
}

/**
 * co_await-able remote operation yielding Result<T>.
 *
 * Wraps the CPU's raw OpAwaiter and snapshots the node's wire-failure
 * count across the suspension: a failure charged to this node while the
 * operation was in flight surfaces as OpError::LinkFailure on exactly
 * the operation that observed it (the lost read that unblocked empty,
 * the fence that drained over a lost write).
 */
template <typename T>
class OpResult
{
  public:
    OpResult(Ctx &ctx, node::Cpu &cpu, const node::CpuOp &op)
        : _ctx(&ctx), _inner{&cpu, op}
    {
    }

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    Result<T> await_resume() const;

  private:
    Ctx *_ctx;
    node::OpAwaiter _inner;
    std::uint64_t _before = 0;
};

/** Per-thread program context. */
class Ctx
{
  public:
    Ctx(Cluster &cluster, NodeId self, node::Cpu &cpu,
        node::AddressSpace &as, std::uint32_t ctx_idx, std::uint32_t key,
        VAddr ctx_reg_va, VAddr special_reg_va, Rng rng);

    NodeId self() const { return _self; }
    Cluster &cluster() { return _cluster; }
    Rng &rng() { return _rng; }
    Tick now() const;

    void setLaunchMode(LaunchMode m) { _mode = m; }

    /** Wire failures charged to this node so far: its HIB's count
     *  (Hib::wireFailures), which OpResult compares across a wait. */
    std::uint64_t wireFailures() const;

    // ------------------------------------------------------------------
    // Single-instruction operations
    // ------------------------------------------------------------------

    /** Load one word (blocking when remote, section 2.2.1).  Yields
     *  Result<Word>: the value plus whether it was actually delivered
     *  (implicitly converts to Word for the fault-free path). */
    OpResult<Word> read(VAddr va);

    /** Store one word (non-blocking when remote, section 2.2.1). */
    OpResult<void> write(VAddr va, Word value);

    /** Burn @p ticks of computation. */
    node::OpAwaiter compute(Tick ticks);

    /** MEMORY_BARRIER: wait for all outstanding remote ops (2.3.5).
     *  Yields Result<void>: LinkFailure when an operation the fence
     *  drained over was lost by the network. */
    OpResult<void> fence();

    // ------------------------------------------------------------------
    // Special operations (multi-instruction launch sequences, 2.2.4)
    // ------------------------------------------------------------------

    /** fetch&store: atomically exchange; returns the old value. */
    Task<Word> fetchStore(VAddr va, Word value);

    /** fetch&inc (generalised to fetch&add); returns the old value. */
    Task<Word> fetchAdd(VAddr va, Word delta = 1);

    /** compare&swap; returns the old value. */
    Task<Word> cas(VAddr va, Word expect, Word desired);

    /** Non-blocking remote copy of @p bytes from @p from to @p to
     *  (to must be locally homed); completion is fence-tracked (2.2.2). */
    Task<void> copy(VAddr from, VAddr to, std::uint32_t bytes);

    // ------------------------------------------------------------------
    // NIC collectives (DESIGN.md section 15; used by Communicator)
    // ------------------------------------------------------------------

    /** Index of this thread's Telegraphos context on its node — the
     *  descriptor slot the HIB collective engine stages payloads for. */
    std::uint32_t ctxIndex() const { return _ctxIdx; }

    /**
     * NIC collective launch sequence: four uncached writes assemble the
     * descriptor in this thread's context (kCtxCollOp/Group/Root/Datum),
     * then one blocking read of kCtxCollGo arms the engine and stalls
     * until the collective completes locally.  Yields the result word
     * (reduced total where the op defines one, 0 otherwise).
     */
    Task<Word> collLaunch(std::uint32_t group, hib::CollOp op,
                          std::uint32_t root, Word datum);

    // ------------------------------------------------------------------
    // Synchronization (implemented in sync.cpp; FENCE embedded, 2.3.5)
    // ------------------------------------------------------------------

    /** Spin lock via fetch&store with test-and-test-and-set backoff. */
    Task<void> lock(VAddr lock_va);

    /** Release a lock (fences first so protected writes are visible). */
    Task<void> unlock(VAddr lock_va);

    /**
     * Sense-reversing barrier over (count, generation) words homed on
     * one node; @p parties programs must call it.  @p backoff is the
     * compute gap between generation polls — large groups should back
     * off proportionally so the home node is not buried under polls.
     */
    Task<void> barrier(VAddr count_va, VAddr gen_va, Word parties,
                       Tick backoff = 400);

  private:
    /** The Telegraphos II context / shadow-addressing launch sequence
     *  (@p flash: use the FLASH PID convention instead of keys). */
    Task<Word> launchContexts(hib::SpecialOp op, VAddr target, VAddr target2,
                              Word datum, Word datum2, bool flash = false);

    /** The Telegraphos I PAL + special-mode launch sequence. */
    Task<Word> launchPal(hib::SpecialOp op, VAddr target, VAddr target2,
                         Word datum, Word datum2, bool trap_launched);

    Task<Word> launch(hib::SpecialOp op, VAddr target, VAddr target2,
                      Word datum, Word datum2);

    LaunchMode effectiveMode() const;

    VAddr ctxReg(PAddr field) const { return _ctxRegVa + field; }
    VAddr specialReg(PAddr reg) const
    {
        return _specialRegVa + (reg - node::kHibRegBase);
    }

    Cluster &_cluster;
    NodeId _self;
    node::Cpu &_cpu;
    node::AddressSpace &_as;
    std::uint32_t _ctxIdx;
    std::uint32_t _key;
    VAddr _ctxRegVa;     ///< where this thread's context page is mapped
    VAddr _specialRegVa; ///< where the Telegraphos I register page is mapped
    Rng _rng;
    LaunchMode _mode = LaunchMode::Default;
};

template <typename T>
inline void
OpResult<T>::await_suspend(std::coroutine_handle<> h)
{
    _before = _ctx->wireFailures();
    _inner.await_suspend(h);
}

template <typename T>
inline Result<T>
OpResult<T>::await_resume() const
{
    const OpError err = _ctx->wireFailures() > _before
                            ? OpError::LinkFailure
                            : OpError::None;
    if constexpr (std::is_void_v<T>)
        return Result<void>(err);
    else
        return Result<T>(_inner.result, err);
}

} // namespace tg

#endif // TELEGRAPHOS_API_CONTEXT_HPP
