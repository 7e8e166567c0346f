/**
 * @file
 * Pending-write counter cache (section 2.3.4): CAM of
 * in-flight update counters with stall-on-full semantics.
 */

#include "hib/counter_cache.hpp"

namespace tg::hib {

CounterCache::CounterCache(System &sys, const std::string &name,
                           std::uint32_t entries)
    : SimObject(sys, name), _capacity(entries)
{
    auto &reg = sys.stats();
    reg.add({_name, "stalls"}, &_stalls);
    reg.add({_name, "stall_ticks"}, &_stallTicks);
    reg.add({_name, "peak"}, &_peak);
}

void
CounterCache::grant(PAddr word_addr, Fn<void()> granted)
{
    ++_counters[word_addr];
    _peak = std::max(_peak, _counters.size());
    schedule(config().counterOp, std::move(granted));
}

void
CounterCache::increment(PAddr word_addr, Fn<void()> granted)
{
    if (!enabled())
        panic("%s: increment with counter cache disabled", _name.c_str());

    auto it = _counters.find(word_addr);
    if (it != _counters.end() || _counters.size() < _capacity) {
        grant(word_addr, std::move(granted));
        return;
    }
    // CAM full: the processor stalls until a reflected write frees a slot
    // ("sooner or later, a cache entry is bound to become free",
    // section 2.3.4).
    ++_stalls;
    _waiters.push_back(Waiter{word_addr, now(), std::move(granted)});
}

void
CounterCache::decrement(PAddr word_addr)
{
    auto it = _counters.find(word_addr);
    if (it == _counters.end())
        panic("%s: decrement of absent counter %llx", _name.c_str(),
              (unsigned long long)word_addr);
    if (--it->second == 0) {
        _counters.erase(it);
        if (!_waiters.empty()) {
            Waiter w = std::move(_waiters.front());
            _waiters.pop_front();
            _stallTicks += now() - w.since;
            grant(w.addr, std::move(w.granted));
        }
    }
}

std::uint32_t
CounterCache::count(PAddr word_addr) const
{
    auto it = _counters.find(word_addr);
    return it == _counters.end() ? 0 : it->second;
}

} // namespace tg::hib
