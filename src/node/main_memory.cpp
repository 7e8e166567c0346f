/**
 * @file
 * Sparse chunked main-memory store.
 */

#include "node/main_memory.hpp"

#include <algorithm>

namespace tg::node {

MainMemory::MainMemory(System &sys, const std::string &name)
    : SimObject(sys, name)
{
    sys.stats().add({_name, "touched_bytes"}, this,
                    [](const MainMemory &m) { return m.touchedBytes(); });
}

const std::vector<Word> &
MainMemory::chunkFor(PAddr offset) const
{
    const PAddr key = offset / (kChunkWords * 8);
    auto &chunk = _chunks[key];
    if (chunk.empty())
        chunk.resize(kChunkWords, 0);
    return chunk;
}

std::vector<Word> &
MainMemory::chunkFor(PAddr offset)
{
    return const_cast<std::vector<Word> &>(
        static_cast<const MainMemory *>(this)->chunkFor(offset));
}

Word
MainMemory::read(PAddr offset) const
{
    if (offset % 8 != 0)
        panic("%s: unaligned read at %llx", _name.c_str(),
              (unsigned long long)offset);
    return chunkFor(offset)[(offset / 8) % kChunkWords];
}

void
MainMemory::write(PAddr offset, Word value)
{
    if (offset % 8 != 0)
        panic("%s: unaligned write at %llx", _name.c_str(),
              (unsigned long long)offset);
    chunkFor(offset)[(offset / 8) % kChunkWords] = value;
}

void
MainMemory::copy(PAddr dst_offset, PAddr src_offset, std::size_t words)
{
    for (std::size_t i = 0; i < words; ++i)
        write(dst_offset + i * 8, read(src_offset + i * 8));
}

std::size_t
MainMemory::touchedBytes() const
{
    return _chunks.size() * kChunkWords * 8;
}

std::vector<std::pair<PAddr, Word>>
MainMemory::dumpWords() const
{
    std::vector<PAddr> keys;
    keys.reserve(_chunks.size());
    for (const auto &[key, chunk] : _chunks)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());

    std::vector<std::pair<PAddr, Word>> out;
    for (PAddr key : keys) {
        const auto &chunk = _chunks.at(key);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            if (chunk[i] != 0)
                out.emplace_back(key * kChunkWords * 8 + i * 8, chunk[i]);
        }
    }
    return out;
}

} // namespace tg::node
