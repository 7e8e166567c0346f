/**
 * @file
 * Page access counters and alarms (paper section 2.2.6).
 *
 * The HIB keeps, for each remotely-mapped sharable page, one read counter
 * and one write counter.  Each remote access decrements the corresponding
 * counter (unless already zero); the 1 -> 0 transition raises an
 * interrupt.  Large values make the counters a profiling tool; small
 * values implement alarm-based replication.
 */

#ifndef TELEGRAPHOS_HIB_PAGE_COUNTERS_HPP
#define TELEGRAPHOS_HIB_PAGE_COUNTERS_HPP

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/sim_object.hpp"

namespace tg::hib {

/** Per-page read/write access counters with alarm on 1 -> 0. */
class PageCounters : public SimObject
{
  public:
    PageCounters(System &sys, const std::string &name);

    /** Counter pair of one page. */
    struct Counters
    {
        std::uint16_t reads = 0;
        std::uint16_t writes = 0;
    };

    /**
     * Program the counters of the page based at @p page_frame (a global
     * physical page address of the *remote* page being monitored).
     */
    void set(PAddr page_frame, std::uint16_t reads, std::uint16_t writes);

    /** Current values (zeros if never programmed). */
    Counters get(PAddr page_frame) const;

    /**
     * Account one remote access to @p page_frame.
     * @return true when the decremented counter hit zero (alarm; the HIB
     *         will raise an OS interrupt).
     */
    bool onAccess(PAddr page_frame, bool is_write);

    /** Pages currently tracked. */
    std::size_t used() const { return _pages.size(); }

    /** All programmed counters in ascending page order (checkpointing,
     *  DESIGN.md section 14.5). */
    std::vector<std::pair<PAddr, Counters>>
    dump() const
    {
        return {_pages.begin(), _pages.end()};
    }

    /** Restore a captured counter table. */
    void
    restore(const std::vector<std::pair<PAddr, Counters>> &pages)
    {
        _pages.clear();
        for (const auto &[frame, c] : pages)
            _pages[frame] = c;
    }

  private:
    std::map<PAddr, Counters> _pages;
    std::uint64_t _accesses = 0;
    std::uint64_t _alarms = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_PAGE_COUNTERS_HPP
