/**
 * @file
 * Per-page access counters with alarm thresholds
 * (section 2.2.6).
 */

#include "hib/page_counters.hpp"

namespace tg::hib {

PageCounters::PageCounters(System &sys, const std::string &name)
    : SimObject(sys, name)
{
    sys.stats().add({_name, "accesses"}, &_accesses);
    sys.stats().add({_name, "alarms"}, &_alarms);
}

void
PageCounters::set(PAddr page_frame, std::uint16_t reads, std::uint16_t writes)
{
    if (_pages.size() >= config().counterPages &&
        _pages.find(page_frame) == _pages.end()) {
        fatal("%s: page-counter table exhausted (%u pages)", _name.c_str(),
              config().counterPages);
    }
    _pages[page_frame] = Counters{reads, writes};
}

PageCounters::Counters
PageCounters::get(PAddr page_frame) const
{
    auto it = _pages.find(page_frame);
    return it == _pages.end() ? Counters{} : it->second;
}

bool
PageCounters::onAccess(PAddr page_frame, bool is_write)
{
    ++_accesses;
    auto it = _pages.find(page_frame);
    if (it == _pages.end())
        return false;
    std::uint16_t &ctr = is_write ? it->second.writes : it->second.reads;
    if (ctr == 0)
        return false; // saturated at zero, no further alarms
    if (--ctr == 0) {
        ++_alarms;
        return true;
    }
    return false;
}

} // namespace tg::hib
