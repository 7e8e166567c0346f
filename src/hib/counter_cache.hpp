/**
 * @file
 * Pending-write counter cache (paper sections 2.3.3-2.3.4).
 *
 * The owner-based update protocol needs, per memory word, a counter of
 * "writes performed locally whose reflected multicast has not yet
 * returned".  Only non-zero counters ever matter, so the hardware keeps
 * them in a small content-addressable cache (16-32 entries expected to
 * suffice).  When the cache is full, the processor stalls until a
 * reflected write drains an entry — exactly the behaviour modelled here.
 *
 * A capacity of zero models Telegraphos I, which omits the cache; callers
 * must then skip the counter mechanism entirely (and accept the section
 * 2.3.2 read-your-writes hazard, which bench S1 demonstrates).
 */

#ifndef TELEGRAPHOS_HIB_COUNTER_CACHE_HPP
#define TELEGRAPHOS_HIB_COUNTER_CACHE_HPP

#include <cstdint>
#include <map>

#include "sim/event.hpp"
#include "sim/ring.hpp"
#include "sim/sim_object.hpp"

namespace tg::hib {

/** CAM of pending-write counters keyed by global word address. */
class CounterCache : public SimObject
{
  public:
    CounterCache(System &sys, const std::string &name, std::uint32_t entries);

    /** True if the counter mechanism exists in this prototype. */
    bool enabled() const { return _capacity > 0; }

    std::uint32_t capacity() const { return _capacity; }

    /**
     * Increment the counter for @p word_addr; @p granted runs once a CAM
     * slot is held (immediately when one is free, otherwise after a
     * stall).  The increment cost (two SRAM accesses + add) is charged
     * before @p granted fires.
     */
    void increment(PAddr word_addr, Fn<void()> granted);

    /** Decrement (a reflected own-write arrived); frees the slot at zero. */
    void decrement(PAddr word_addr);

    /** Current counter value (zero when not cached). */
    std::uint32_t count(PAddr word_addr) const;

    /** Number of entries currently in use. */
    std::size_t used() const { return _counters.size(); }

    std::uint64_t stallEvents() const { return _stalls; }
    Tick stallTicks() const { return _stallTicks; }
    std::size_t peakUsed() const { return _peak; }

  private:
    struct Waiter
    {
        PAddr addr;
        Tick since;
        Fn<void()> granted;
    };

    void grant(PAddr word_addr, Fn<void()> granted);

    std::uint32_t _capacity;
    std::map<PAddr, std::uint32_t> _counters;
    Ring<Waiter> _waiters;
    std::uint64_t _stalls = 0;
    Tick _stallTicks = 0;
    std::size_t _peak = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_COUNTER_CACHE_HPP
