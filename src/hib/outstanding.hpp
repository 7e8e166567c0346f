/**
 * @file
 * Counter of outstanding remote operations + FENCE support.
 *
 * "To facilitate the completion detection of remote accesses, special
 * counters of outstanding remote operations are also provided" (paper
 * section 2.2).  A MEMORY_BARRIER stalls the processor until the counter
 * drains to zero (section 2.3.5); it is embedded in every synchronization
 * operation the runtime provides.
 */

#ifndef TELEGRAPHOS_HIB_OUTSTANDING_HPP
#define TELEGRAPHOS_HIB_OUTSTANDING_HPP

#include <cstdint>

#include "sim/event.hpp"
#include "sim/ring.hpp"
#include "sim/sim_object.hpp"

namespace tg::hib {

/** Outstanding-operation counter with fence waiters. */
class Outstanding : public SimObject
{
  public:
    Outstanding(System &sys, const std::string &name);

    /** Record @p n newly launched operations awaiting completion. */
    void add(std::uint64_t n = 1);

    /** Record @p n completions; wakes fence waiters at zero. */
    void complete(std::uint64_t n = 1);

    /**
     * Record @p n operations lost by the network (reliability layer gave
     * up on their packets).  Like complete(), but clamps instead of
     * panicking when the failure path's estimate over-counts — a lost
     * packet must never wedge a fence, and must never drain more than is
     * outstanding.  Returns the amount actually drained.
     */
    std::uint64_t drainLost(std::uint64_t n = 1);

    /** Currently outstanding operations. */
    std::uint64_t current() const { return _current; }

    /**
     * Invoke @p cb once the counter is (or becomes) zero.  @p traceId
     * tags the fence for the lifecycle tracer: FenceStart is recorded at
     * registration, FenceWake when @p cb is released.
     */
    void waitDrain(Fn<void()> cb, std::uint64_t traceId = 0);

    /** Peak value reached (stat). */
    std::uint64_t peak() const { return _peak; }

    /** Total operations ever tracked (stat). */
    std::uint64_t total() const { return _total; }

    /** Operations drained via the loss path (stat). */
    std::uint64_t lost() const { return _lost; }

  private:
    void wakeWaiters();

    std::uint64_t _current = 0;
    std::uint64_t _peak = 0;
    std::uint64_t _total = 0;
    std::uint64_t _lost = 0;
    Ring<Fn<void()>> _waiters;
    bool _draining = false;
    std::uint16_t _traceComp = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_OUTSTANDING_HPP
