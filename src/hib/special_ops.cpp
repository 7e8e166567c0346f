/**
 * @file
 * Special-operation launch paths (PAL mode, contexts,
 * shadow addressing).
 */

#include "hib/special_ops.hpp"

namespace tg::hib {

using node::kContextStride;
using node::kCtxCollDatum;
using node::kCtxCollGo;
using node::kCtxCollGroup;
using node::kCtxCollOp;
using node::kCtxCollRoot;
using node::kCtxDatum;
using node::kCtxDatum2;
using node::kCtxDstPa;
using node::kCtxGo;
using node::kCtxOp;
using node::kRegContextBase;
using node::kRegSpecialDatum;
using node::kRegSpecialDatum2;
using node::kRegSpecialOp;

SpecialOpsUnit::SpecialOpsUnit(System &sys, const std::string &name)
    : SimObject(sys, name), _contexts(config().hibContexts)
{
    sys.stats().add({_name, "key_violations"}, &_keyViolations);
}

void
SpecialOpsUnit::assignKey(std::uint32_t idx, std::uint32_t key)
{
    if (idx >= _contexts.size())
        fatal("%s: context %u out of range", _name.c_str(), idx);
    _contexts[idx] = Context{};
    _contexts[idx].key = key;
}

bool
SpecialOpsUnit::ctxWrite(PAddr reg_offset, Word value)
{
    if (reg_offset < kRegContextBase)
        return false;
    const PAddr rel = reg_offset - kRegContextBase;
    const std::uint32_t idx = std::uint32_t(rel / kContextStride);
    if (idx >= _contexts.size())
        return false;
    LaunchArgs &a = _contexts[idx].args;
    switch (rel % kContextStride) {
      case kCtxOp:
        a.op = static_cast<SpecialOp>(value);
        return true;
      case kCtxDatum:
        a.datum = value;
        return true;
      case kCtxDatum2:
        a.datum2 = value;
        return true;
      case kCtxDstPa:
        // Raw destination PA writes are only legal from the kernel's
        // driver path; user code uses shadow capture.  The Hib routes
        // accordingly; here we just store.
        a.dstPa = value;
        a.dstValid = true;
        return true;
      case kCtxCollOp:
        _contexts[idx].coll.op = static_cast<CollOp>(value);
        return true;
      case kCtxCollGroup:
        _contexts[idx].coll.group = std::uint32_t(value);
        return true;
      case kCtxCollRoot:
        _contexts[idx].coll.root = std::uint32_t(value);
        return true;
      case kCtxCollDatum:
        _contexts[idx].coll.datum = value;
        return true;
      default:
        return false;
    }
}

bool
SpecialOpsUnit::isGo(PAddr reg_offset, std::uint32_t &ctx_out) const
{
    if (reg_offset < kRegContextBase)
        return false;
    const PAddr rel = reg_offset - kRegContextBase;
    const std::uint32_t idx = std::uint32_t(rel / kContextStride);
    if (idx >= _contexts.size() || rel % kContextStride != kCtxGo)
        return false;
    ctx_out = idx;
    return true;
}

bool
SpecialOpsUnit::isCollGo(PAddr reg_offset, std::uint32_t &ctx_out) const
{
    if (reg_offset < kRegContextBase)
        return false;
    const PAddr rel = reg_offset - kRegContextBase;
    const std::uint32_t idx = std::uint32_t(rel / kContextStride);
    if (idx >= _contexts.size() || rel % kContextStride != kCtxCollGo)
        return false;
    ctx_out = idx;
    return true;
}

CollArgs
SpecialOpsUnit::collArgs(std::uint32_t idx) const
{
    if (idx >= _contexts.size())
        panic("%s: collArgs of context %u out of range", _name.c_str(), idx);
    return _contexts[idx].coll;
}

bool
SpecialOpsUnit::shadowCapture(PAddr stripped_pa, Word store_value)
{
    const bool dst_field = (store_value >> 56) & 1;
    const std::uint32_t idx = std::uint32_t(store_value >> 32) & 0xffffff;
    const std::uint32_t key = std::uint32_t(store_value);

    if (idx >= _contexts.size() || _contexts[idx].key != key) {
        // "Only processes that know the key that corresponds to a
        // specific context can write physical addresses into that
        // context" (section 2.2.5).
        ++_keyViolations;
        return false;
    }
    LaunchArgs &a = _contexts[idx].args;
    if (dst_field) {
        a.dstPa = stripped_pa;
        a.dstValid = true;
    } else {
        a.srcPa = stripped_pa;
        a.srcValid = true;
    }
    return true;
}

void
SpecialOpsUnit::shadowCapturePid(PAddr stripped_pa, Word store_value)
{
    // No authentication: whatever process the PID register names gets
    // the address.  With an unmodified OS (stale PID) this silently
    // corrupts another process's context — the paper's argument for
    // keys (section 2.2.5).
    if (_pid >= _contexts.size())
        return;
    LaunchArgs &a = _contexts[_pid].args;
    if ((store_value >> 56) & 1) {
        a.dstPa = stripped_pa;
        a.dstValid = true;
    } else {
        a.srcPa = stripped_pa;
        a.srcValid = true;
    }
}

LaunchArgs
SpecialOpsUnit::args(std::uint32_t idx) const
{
    if (idx >= _contexts.size())
        panic("%s: args of context %u out of range", _name.c_str(), idx);
    return _contexts[idx].args;
}

void
SpecialOpsUnit::consume(std::uint32_t idx)
{
    _contexts[idx].args.srcValid = false;
    _contexts[idx].args.dstValid = false;
}

void
SpecialOpsUnit::setSpecialMode(bool on)
{
    _specialMode = on;
    if (on) {
        _captured = 0;
        _special = LaunchArgs{};
    }
}

void
SpecialOpsUnit::captureAddress(PAddr pa)
{
    if (!_specialMode)
        panic("%s: captureAddress outside special mode", _name.c_str());
    if (_captured == 0) {
        _special.srcPa = pa;
        _special.srcValid = true;
    } else {
        _special.dstPa = pa;
        _special.dstValid = true;
    }
    ++_captured;
}

bool
SpecialOpsUnit::specialRegWrite(PAddr reg_offset, Word value)
{
    switch (reg_offset) {
      case kRegSpecialOp:
        _special.op = static_cast<SpecialOp>(value);
        return true;
      case kRegSpecialDatum:
        _special.datum = value;
        return true;
      case kRegSpecialDatum2:
        _special.datum2 = value;
        return true;
      default:
        return false;
    }
}

void
SpecialOpsUnit::resetSpecial()
{
    _specialMode = false;
    _captured = 0;
    _special = LaunchArgs{};
}

} // namespace tg::hib
