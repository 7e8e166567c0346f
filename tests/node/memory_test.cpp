/**
 * @file
 * Unit tests of the sparse main-memory store.
 */

#include <gtest/gtest.h>

#include "node/main_memory.hpp"
#include "sim/system.hpp"

namespace tg::node {
namespace {

class MemoryTest : public ::testing::Test
{
  protected:
    MemoryTest() : sys(Config{}), mem(sys, "mem") {}
    System sys;
    MainMemory mem;
};

TEST_F(MemoryTest, ReadsZeroWhenUntouched)
{
    EXPECT_EQ(mem.read(0x1000), 0u);
    EXPECT_EQ(mem.read(kShmBase + 0x88), 0u);
}

TEST_F(MemoryTest, WriteThenRead)
{
    mem.write(0x2000, 0xdeadbeefULL);
    EXPECT_EQ(mem.read(0x2000), 0xdeadbeefULL);
    mem.write(0x2000, 1);
    EXPECT_EQ(mem.read(0x2000), 1u);
}

TEST_F(MemoryTest, SparseRegionsAreIndependent)
{
    mem.write(0x0, 1);
    mem.write(kShmBase, 2);
    mem.write(kShmBase + 0x10'0000, 3);
    EXPECT_EQ(mem.read(0x0), 1u);
    EXPECT_EQ(mem.read(kShmBase), 2u);
    EXPECT_EQ(mem.read(kShmBase + 0x10'0000), 3u);
}

TEST_F(MemoryTest, CopyMovesBlocks)
{
    for (PAddr i = 0; i < 16; ++i)
        mem.write(0x1000 + i * 8, 100 + i);
    mem.copy(kShmBase, mem, 0x1000, 16);
    for (PAddr i = 0; i < 16; ++i)
        EXPECT_EQ(mem.read(kShmBase + i * 8), 100 + i);
}

TEST_F(MemoryTest, ChunkBoundaryCrossing)
{
    // Chunks are 8 KB: write across a boundary.
    const PAddr boundary = 8192;
    mem.write(boundary - 8, 11);
    mem.write(boundary, 22);
    EXPECT_EQ(mem.read(boundary - 8), 11u);
    EXPECT_EQ(mem.read(boundary), 22u);
}

TEST_F(MemoryTest, TouchedBytesGrows)
{
    const std::size_t before = mem.touchedBytes();
    mem.write(0x100'0000, 1);
    EXPECT_GT(mem.touchedBytes(), before);
}

TEST_F(MemoryTest, ReadsAndZeroWritesTouchNothing)
{
    // Absent memory is all zeros: neither reading it nor writing a zero
    // into it materialises a chunk.
    EXPECT_EQ(mem.read(0x4000), 0u);
    EXPECT_EQ(mem.read(kShmBase + 0x2000), 0u);
    mem.write(0x8000, 0);
    mem.write(kShmBase, 0);
    EXPECT_EQ(mem.touchedBytes(), 0u);
    EXPECT_TRUE(mem.dumpWords().empty());
}

TEST_F(MemoryTest, CopyBetweenStoresCrossesChunkBoundaries)
{
    // Source straddles 8 KB at 8192; the destination straddles its own
    // boundary at a different word, so the spans split on both sides.
    MainMemory dst(sys, "dst");
    const PAddr src_at = 8192 - 5 * 8;
    const PAddr dst_at = kShmBase + 2 * 8192 - 3 * 8;
    for (PAddr i = 0; i < 12; ++i)
        mem.write(src_at + i * 8, 500 + i);
    dst.copy(dst_at, mem, src_at, 12);
    for (PAddr i = 0; i < 12; ++i)
        EXPECT_EQ(dst.read(dst_at + i * 8), 500 + i) << i;
    EXPECT_EQ(dst.read(dst_at - 8), 0u);
    EXPECT_EQ(dst.read(dst_at + 12 * 8), 0u);
}

TEST_F(MemoryTest, CopyOfAbsentSourceZeroesDestination)
{
    MainMemory dst(sys, "dst");
    for (PAddr i = 0; i < 8; ++i)
        dst.write(0x1000 + i * 8, 7 + i);
    dst.copy(0x1000 + 8, mem, 0x40000, 6);
    EXPECT_EQ(dst.read(0x1000), 7u);
    for (PAddr i = 1; i < 7; ++i)
        EXPECT_EQ(dst.read(0x1000 + i * 8), 0u) << i;
    EXPECT_EQ(dst.read(0x1000 + 7 * 8), 14u);
    EXPECT_EQ(mem.touchedBytes(), 0u);
}

TEST_F(MemoryTest, OverlappingSelfCopyRunsInForwardWordOrder)
{
    // Shift up by one word across a chunk boundary: each word read was
    // written by the step before, so the first value smears forward.
    const PAddr boundary = 8192;
    for (PAddr i = 0; i < 5; ++i)
        mem.write(boundary - 16 + i * 8, 1 + i);
    mem.copy(boundary - 8, mem, boundary - 16, 4);
    for (PAddr i = 0; i < 5; ++i)
        EXPECT_EQ(mem.read(boundary - 16 + i * 8), 1u) << i;
}

using MemoryDeathTest = MemoryTest;

TEST_F(MemoryDeathTest, UnalignedAccessPanics)
{
    EXPECT_DEATH(mem.read(3), "unaligned");
    EXPECT_DEATH(mem.write(0x1001, 1), "unaligned");
}

} // namespace
} // namespace tg::node
