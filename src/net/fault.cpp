/**
 * @file
 * Deterministic fault injector: seeded per-link bit-error,
 * drop, duplication and down-window decisions.
 */

#include "net/fault.hpp"

#include <algorithm>
#include <iterator>

#include "sim/glob.hpp"

namespace tg::net {

namespace {

/** FNV-1a over the link name: a stable identity hash so per-link RNG
 *  streams do not depend on component construction order. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

FaultInjector::FaultInjector(const FaultSpec &spec, std::uint64_t seed,
                             const std::string &link_name)
    : _spec(spec), _name(link_name), _rng(seed ^ fnv1a(link_name))
{
    _active = spec.enabled() &&
              (spec.linkFilter.empty() ||
               link_name.find(spec.linkFilter) != std::string::npos);

    std::vector<FaultWindow> mine;
    for (const auto &w : spec.downWindows) {
        if (windowApplies(w))
            mine.push_back(FaultWindow{w.from, w.until, {}});
    }
    std::sort(mine.begin(), mine.end(),
              [](const FaultWindow &a, const FaultWindow &b) {
                  return a.from != b.from ? a.from < b.from
                                          : a.until < b.until;
              });
    // Coalesce overlapping and abutting windows: every outage query
    // answers from this one disjoint, sorted list.
    for (const auto &w : mine) {
        if (!_down.empty() && w.from <= _down.back().until)
            _down.back().until = std::max(_down.back().until, w.until);
        else
            _down.push_back(w);
    }
}

bool
FaultInjector::windowApplies(const FaultWindow &w) const
{
    if (!w.target.empty())
        return globMatch(w.target, _name);
    return _active;
}

bool
FaultInjector::dropNow()
{
    return _spec.dropRate > 0 && _rng.chance(_spec.dropRate);
}

bool
FaultInjector::corruptNow()
{
    if (_spec.bitErrorRate <= 0 || !_rng.chance(_spec.bitErrorRate))
        return false;
    // Which of the 128 address/value bits flips does not matter to the
    // receiver's CRC-32C check, which catches every single-bit error;
    // the position is still drawn so every link's stream keeps the
    // draws it has always made.
    (void)_rng.below(128);
    return true;
}

bool
FaultInjector::duplicateNow()
{
    return _spec.duplicateRate > 0 && _rng.chance(_spec.duplicateRate);
}

const FaultWindow *
FaultInjector::outageAt(Tick now) const
{
    // The last window starting at or before @p now is the only one that
    // can cover it (the list is disjoint and sorted).
    auto it = std::upper_bound(
        _down.begin(), _down.end(), now,
        [](Tick t, const FaultWindow &w) { return t < w.from; });
    if (it == _down.begin() || now >= std::prev(it)->until)
        return nullptr;
    return &*std::prev(it);
}

bool
FaultInjector::isDown(Tick now) const
{
    return outageAt(now) != nullptr;
}

Tick
FaultInjector::downUntil(Tick now) const
{
    const FaultWindow *w = outageAt(now);
    return w ? w->until : now;
}

Tick
FaultInjector::downStart(Tick now) const
{
    const FaultWindow *w = outageAt(now);
    return w ? w->from : now;
}

bool
FaultInjector::downPastDeadline(Tick now) const
{
    const FaultWindow *w = outageAt(now);
    return w && now - w->from > _spec.linkDownDeadline;
}

} // namespace tg::net
