/**
 * @file
 * Unit tests of the direct-mapped cache model.
 */

#include <gtest/gtest.h>

#include "node/cache.hpp"
#include "sim/system.hpp"

namespace tg::node {
namespace {

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : sys(Config{}), cache(sys, "cache") {}
    System sys;
    Cache cache;
};

TEST_F(CacheTest, MissThenHit)
{
    const Tick miss = cache.access(0x1000);
    EXPECT_EQ(miss, sys.config().memAccess);
    const Tick hit = cache.access(0x1000);
    EXPECT_EQ(hit, sys.config().cacheHit);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(CacheTest, SameLineHits)
{
    cache.access(0x1000);
    EXPECT_EQ(cache.access(0x1008), sys.config().cacheHit);
    EXPECT_EQ(cache.access(0x1018), sys.config().cacheHit);
}

TEST_F(CacheTest, ConflictEviction)
{
    // Direct-mapped 8 KB: addresses 8 KB apart conflict.
    cache.access(0x0000);
    cache.access(0x2000); // evicts line 0
    EXPECT_EQ(cache.access(0x0000), sys.config().memAccess);
}

TEST_F(CacheTest, InvalidatePage)
{
    cache.access(0x1000);
    cache.access(0x1100);
    cache.invalidatePage(0x1000);
    EXPECT_EQ(cache.access(0x1000), sys.config().memAccess);
    EXPECT_EQ(cache.access(0x1100), sys.config().memAccess);
}

TEST_F(CacheTest, InvalidateAll)
{
    cache.access(0x1000);
    cache.invalidateAll();
    EXPECT_EQ(cache.access(0x1000), sys.config().memAccess);
}

} // namespace
} // namespace tg::node
