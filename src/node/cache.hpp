/**
 * @file
 * Simple direct-mapped, write-through data cache for local (private)
 * memory accesses.
 *
 * Telegraphos never interferes with accesses to non-shared data ("its
 * access is routed to the cache ... as usual", paper section 2.2.1), but a
 * cache model is needed so local and remote access costs stand in a
 * realistic ratio.  Shared/remote accesses are uncached, as on the real
 * hardware.
 */

#ifndef TELEGRAPHOS_NODE_CACHE_HPP
#define TELEGRAPHOS_NODE_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace tg::node {

/** Direct-mapped write-through cache (tags only; data lives in memory). */
class Cache : public SimObject
{
  public:
    Cache(System &sys, const std::string &name);

    /**
     * Account one load or store.  Both allocate the line and cost the
     * same: a hit costs cacheHit, a miss memAccess.
     * @param paddr  full physical address
     * @return access latency in ticks
     */
    Tick access(PAddr paddr);

    /** Invalidate every line of the page containing @p paddr. */
    void invalidatePage(PAddr paddr);

    /** Invalidate everything (context-switch pollution model). */
    void invalidateAll();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    /** Raw tag array (checkpointing, DESIGN.md section 14.5). */
    const std::vector<PAddr> &tags() const { return _tags; }

    /** Restore a captured tag array; @p tags must have the size the
     *  configuration implies. */
    void restoreState(const std::vector<PAddr> &tags);

  private:
    std::size_t indexOf(PAddr line) const { return line % _tags.size(); }

    std::vector<PAddr> _tags; // line address + 1, 0 = invalid
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_CACHE_HPP
