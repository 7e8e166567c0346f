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

const Word *
MainMemory::find(PAddr offset) const
{
    const auto it = _chunks.find(offset / (kChunkWords * 8));
    return it == _chunks.end() ? nullptr : it->second.data();
}

Word *
MainMemory::materialise(PAddr offset)
{
    auto &chunk = _chunks[offset / (kChunkWords * 8)];
    if (chunk.empty())
        chunk.resize(kChunkWords, 0);
    return chunk.data();
}

Word
MainMemory::read(PAddr offset) const
{
    if (offset % 8 != 0)
        panic("%s: unaligned read at %llx", _name.c_str(),
              (unsigned long long)offset);
    const Word *chunk = find(offset);
    return chunk ? chunk[wordIndex(offset)] : 0;
}

void
MainMemory::write(PAddr offset, Word value)
{
    if (offset % 8 != 0)
        panic("%s: unaligned write at %llx", _name.c_str(),
              (unsigned long long)offset);
    if (value == 0 && !find(offset))
        return; // an absent chunk already reads as zero
    materialise(offset)[wordIndex(offset)] = value;
}

void
MainMemory::copy(PAddr dst_offset, const MainMemory &src, PAddr src_offset,
                 std::size_t words)
{
    if (dst_offset % 8 != 0 || src_offset % 8 != 0)
        panic("%s: unaligned copy %llx <- %llx", _name.c_str(),
              (unsigned long long)dst_offset,
              (unsigned long long)src_offset);
    // Each span stays inside one source and one destination chunk.
    while (words > 0) {
        const std::size_t si = wordIndex(src_offset);
        const std::size_t di = wordIndex(dst_offset);
        const std::size_t n =
            std::min({words, kChunkWords - si, kChunkWords - di});
        if (const Word *s = src.find(src_offset)) {
            Word *d = materialise(dst_offset);
            // Word by word, not memmove: a self-copy keeps forward order.
            for (std::size_t i = 0; i < n; ++i)
                d[di + i] = s[si + i];
        } else if (find(dst_offset)) {
            std::fill_n(materialise(dst_offset) + di, n, Word(0));
        }
        words -= n;
        src_offset += PAddr(n) * 8;
        dst_offset += PAddr(n) * 8;
    }
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
