/**
 * @file
 * Ctx implementation: per-thread handle issuing remote
 * reads/writes/atomics and fences through the node's HIB.
 */

#include "api/context.hpp"

#include "api/cluster.hpp"
#include "hib/special_ops.hpp"

namespace tg {

using node::CpuOp;
using node::OpAwaiter;

Ctx::Ctx(Cluster &cluster, NodeId self, node::Cpu &cpu,
         node::AddressSpace &as, std::uint32_t ctx_idx, std::uint32_t key,
         VAddr ctx_reg_va, VAddr special_reg_va, Rng rng)
    : _cluster(cluster), _self(self), _cpu(cpu), _as(as), _ctxIdx(ctx_idx),
      _key(key), _ctxRegVa(ctx_reg_va), _specialRegVa(special_reg_va),
      _rng(rng)
{
}

Tick
Ctx::now() const
{
    return _cluster.system().now();
}

std::uint64_t
Ctx::wireFailures() const
{
    return _cluster.hibOf(_self).wireFailures();
}

OpResult<Word>
Ctx::read(VAddr va)
{
    CpuOp op;
    op.kind = CpuOp::Kind::Read;
    op.va = va;
    return OpResult<Word>(*this, _cpu, op);
}

OpResult<void>
Ctx::write(VAddr va, Word value)
{
    CpuOp op;
    op.kind = CpuOp::Kind::Write;
    op.va = va;
    op.value = value;
    return OpResult<void>(*this, _cpu, op);
}

OpAwaiter
Ctx::compute(Tick ticks)
{
    CpuOp op;
    op.kind = CpuOp::Kind::Compute;
    op.ticks = ticks;
    return OpAwaiter{&_cpu, op};
}

OpResult<void>
Ctx::fence()
{
    CpuOp op;
    op.kind = CpuOp::Kind::Fence;
    return OpResult<void>(*this, _cpu, op);
}

LaunchMode
Ctx::effectiveMode() const
{
    if (_mode != LaunchMode::Default)
        return _mode;
    return _cluster.config().prototype == Prototype::TelegraphosI
               ? LaunchMode::Pal
               : LaunchMode::Contexts;
}

// ---------------------------------------------------------------------
// Launch sequences (paper section 2.2.4)
// ---------------------------------------------------------------------

Task<Word>
Ctx::launchContexts(hib::SpecialOp op, VAddr target, VAddr target2,
                    Word datum, Word datum2, bool flash)
{
    // A sequence of uncached writes fills the Telegraphos context; shadow
    // stores communicate physical addresses with access-right checking
    // performed by the TLB; a final read launches the operation.  If the
    // process is preempted mid-sequence, the context preserves its
    // contents (tested in tests/hib/special_ops_test.cpp).
    //
    // In FLASH mode (section 2.2.5) the shadow store names no context
    // and carries no key: the HIB's PID register — maintained by the OS
    // on context switches — selects the context.  With an unmodified OS
    // the address silently lands in the wrong context.
    co_await write(ctxReg(node::kCtxOp), static_cast<Word>(op));
    co_await write(ctxReg(node::kCtxDatum), datum);
    if (op == hib::SpecialOp::Cas)
        co_await write(ctxReg(node::kCtxDatum2), datum2);
    co_await write(shadowOf(target),
                   flash ? hib::flashShadowArg(/*dst_field=*/false)
                         : hib::shadowStoreArg(_ctxIdx, false, _key));
    if (op == hib::SpecialOp::Copy)
        co_await write(shadowOf(target2),
                       flash ? hib::flashShadowArg(/*dst_field=*/true)
                             : hib::shadowStoreArg(_ctxIdx, true, _key));
    const Word old = co_await read(ctxReg(node::kCtxGo));
    co_return old;
}

Task<Word>
Ctx::launchPal(hib::SpecialOp op, VAddr target, VAddr target2, Word datum,
               Word datum2, bool trap_launched)
{
    // Telegraphos I: the HIB is put into special mode; subsequent stores
    // to shared addresses are captured as arguments (the TLB still checks
    // access rights).  The whole sequence runs uninterrupted inside PAL
    // code, so preemption is disabled around it.
    if (!trap_launched) {
        _cpu.disablePreemption();
        co_await compute(_cluster.config().palCall);
    }
    co_await write(specialReg(node::kRegSpecialMode), 1);
    co_await write(specialReg(node::kRegSpecialOp), static_cast<Word>(op));
    co_await write(specialReg(node::kRegSpecialDatum), datum);
    if (op == hib::SpecialOp::Cas)
        co_await write(specialReg(node::kRegSpecialDatum2), datum2);
    co_await write(target, 0); // captured as source address
    if (op == hib::SpecialOp::Copy)
        co_await write(target2, 0); // captured as destination address
    const Word old = co_await read(specialReg(node::kRegSpecialResult));
    co_await write(specialReg(node::kRegSpecialMode), 0);
    if (!trap_launched)
        _cpu.enablePreemption();
    co_return old;
}

Task<Word>
Ctx::launch(hib::SpecialOp op, VAddr target, VAddr target2, Word datum,
            Word datum2)
{
    switch (effectiveMode()) {
      case LaunchMode::Contexts:
        return launchContexts(op, target, target2, datum, datum2);
      case LaunchMode::FlashPid:
        return launchContexts(op, target, target2, datum, datum2,
                              /*flash=*/true);
      case LaunchMode::Pal:
        return launchPal(op, target, target2, datum, datum2, false);
      case LaunchMode::OsTrap:
        // Kernel-mediated launch: pay the trap, then the kernel performs
        // the same uncached register sequence on the user's behalf
        // (validation folded into the trap cost).
        return [](Ctx &self, hib::SpecialOp op_, VAddr t, VAddr t2, Word d,
                  Word d2) -> Task<Word> {
            co_await self.compute(self._cluster.config().osTrap);
            Word old;
            if (self._cluster.config().prototype == Prototype::TelegraphosI)
                old = co_await self.launchPal(op_, t, t2, d, d2, true);
            else
                old = co_await self.launchContexts(op_, t, t2, d, d2);
            co_return old;
        }(*this, op, target, target2, datum, datum2);
      case LaunchMode::Default:
        break;
    }
    panic("unreachable launch mode");
}

Task<Word>
Ctx::fetchStore(VAddr va, Word value)
{
    return launch(hib::SpecialOp::FetchStore, va, 0, value, 0);
}

Task<Word>
Ctx::fetchAdd(VAddr va, Word delta)
{
    return launch(hib::SpecialOp::FetchInc, va, 0, delta, 0);
}

Task<Word>
Ctx::cas(VAddr va, Word expect, Word desired)
{
    return launch(hib::SpecialOp::Cas, va, 0, expect, desired);
}

Task<void>
Ctx::copy(VAddr from, VAddr to, std::uint32_t bytes)
{
    co_await launch(hib::SpecialOp::Copy, from, to, bytes, 0);
}

Task<Word>
Ctx::collLaunch(std::uint32_t group, hib::CollOp op, std::uint32_t root,
                Word datum)
{
    // Same shape as launchContexts: uncached descriptor writes into the
    // per-thread context page, then one blocking GO read.  The TC
    // transaction ends when the HIB decodes the read (hib::Hib::load), so
    // the bus stays free while the tree protocol runs NIC-to-NIC.
    co_await write(ctxReg(node::kCtxCollOp), static_cast<Word>(op));
    co_await write(ctxReg(node::kCtxCollGroup), group);
    co_await write(ctxReg(node::kCtxCollRoot), root);
    co_await write(ctxReg(node::kCtxCollDatum), datum);
    const Word result = co_await read(ctxReg(node::kCtxCollGo));
    co_return result;
}

} // namespace tg
