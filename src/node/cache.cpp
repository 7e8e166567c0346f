/**
 * @file
 * Direct-mapped data cache model.
 */

#include "node/cache.hpp"

namespace tg::node {

Cache::Cache(System &sys, const std::string &name) : SimObject(sys, name)
{
    const auto &cfg = config();
    std::size_t lines =
        cfg.cacheBytes ? cfg.cacheBytes / cfg.cacheLineBytes : 1;
    if (lines == 0)
        lines = 1;
    _tags.assign(lines, 0);
    sys.stats().add({_name, "hits"}, &_hits);
    sys.stats().add({_name, "misses"}, &_misses);
}

Tick
Cache::access(PAddr paddr, bool write)
{
    const auto &cfg = config();
    if (cfg.cacheBytes == 0)
        return cfg.memAccess;

    const PAddr line = paddr / cfg.cacheLineBytes;
    const std::size_t idx = indexOf(line);
    const bool hit = _tags[idx] == line + 1;

    if (hit)
        ++_hits;
    else
        ++_misses;
    _tags[idx] = line + 1; // allocate on read or write

    if (write) {
        // Write-through: the store always reaches memory; a write buffer
        // hides part of the latency, modelled as the cache-hit cost when
        // the line is present.
        return hit ? cfg.cacheHit : cfg.memAccess;
    }
    return hit ? cfg.cacheHit : cfg.memAccess;
}

void
Cache::invalidatePage(PAddr paddr)
{
    const auto &cfg = config();
    const PAddr page = paddr / cfg.pageBytes;
    const PAddr first_line = page * cfg.pageBytes / cfg.cacheLineBytes;
    const PAddr lines_per_page = cfg.pageBytes / cfg.cacheLineBytes;
    for (PAddr l = first_line; l < first_line + lines_per_page; ++l) {
        const std::size_t idx = indexOf(l);
        if (_tags[idx] == l + 1)
            _tags[idx] = 0;
    }
}

void
Cache::invalidateAll()
{
    std::fill(_tags.begin(), _tags.end(), 0);
}

void
Cache::restoreState(const std::vector<PAddr> &tags, std::uint64_t hits,
                    std::uint64_t misses)
{
    if (tags.size() != _tags.size())
        panic("%s: checkpoint tag array has %zu lines, cache has %zu "
              "(different configuration?)",
              _name.c_str(), tags.size(), _tags.size());
    _tags = tags;
    _hits = hits;
    _misses = misses;
}

} // namespace tg::node
