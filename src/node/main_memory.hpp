/**
 * @file
 * Sparse backing store for one node's physical memory.
 *
 * Covers both the main-memory region and the Telegraphos shared-memory
 * region (HIB SRAM on prototype I / pinned DRAM on prototype II).  Storage
 * is word-granular and sparse; timing is charged by the accessing
 * component (CPU cache model, HIB service paths), not here.
 *
 * An absent chunk is all zeros: reads and zero writes never allocate
 * (DESIGN.md section 5).
 */

#ifndef TELEGRAPHOS_NODE_MAIN_MEMORY_HPP
#define TELEGRAPHOS_NODE_MAIN_MEMORY_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "node/address.hpp"
#include "sim/sim_object.hpp"

namespace tg::node {

/** Word-granular sparse physical memory of one workstation. */
class MainMemory : public SimObject
{
  public:
    MainMemory(System &sys, const std::string &name);

    /** Read the 64-bit word at node-local @p offset (must be 8-aligned). */
    Word read(PAddr offset) const;

    /** Write the 64-bit word at node-local @p offset. */
    void write(PAddr offset, Word value);

    /** Copy @p words words from @p src (may be *this) at @p src_offset to
     *  @p dst_offset, span by span in forward word order (an overlapping
     *  self-copy reads what it already wrote). */
    void copy(PAddr dst_offset, const MainMemory &src, PAddr src_offset,
              std::size_t words);

    /** Bytes of chunks holding written data (for stats). */
    std::size_t touchedBytes() const;

    /** All non-zero words as (offset, value) pairs in ascending offset
     *  order (checkpointing, DESIGN.md section 14.5).  Zero words are
     *  omitted: a fresh store reads them back as zero anyway. */
    std::vector<std::pair<PAddr, Word>> dumpWords() const;

  private:
    static constexpr std::size_t kChunkWords = 1024; // 8 KB chunks
    static std::size_t wordIndex(PAddr o) { return (o / 8) % kChunkWords; }

    struct Hasher
    {
        std::size_t
        operator()(PAddr a) const
        {
            return std::hash<std::uint64_t>()(a * 0x9e3779b97f4a7c15ULL);
        }
    };

    /** The chunk holding @p offset, or nullptr while it is absent. */
    const Word *find(PAddr offset) const;

    /** As find(), materialised (zeroed) if absent; chunks never move. */
    Word *materialise(PAddr offset);

    std::unordered_map<PAddr, std::vector<Word>, Hasher> _chunks;
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_MAIN_MEMORY_HPP
