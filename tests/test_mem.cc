/**
 * @file
 * Unit tests for the two-level cache timing model and the host SIMD
 * level descriptor.
 */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"
#include "mem/simd.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

MemoryParams
smallParams()
{
    MemoryParams p;
    p.l1Bytes = 1024;  // 16 sets x 2 ways x 32 B
    p.l1Assoc = 2;
    p.lineBytes = 32;
    p.l2Bytes = 8192;  // 64 sets x 4 ways
    p.l2Assoc = 4;
    p.l2HitCycles = 10;
    p.memCycles = 60;
    return p;
}

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(smallParams());
    EXPECT_EQ(c.access(0x1000, false), 60u); // cold: memory
    EXPECT_EQ(c.access(0x1000, false), 0u);  // L1 hit
    EXPECT_EQ(c.access(0x1008, false), 0u);  // same line
}

TEST(CacheModel, L2HitAfterL1Eviction)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // Fill one L1 set with 3 distinct lines mapping to it (assoc 2).
    const std::uint64_t set_stride = p.l1Bytes / p.l1Assoc; // 512
    c.access(0, false);
    c.access(set_stride, false);
    c.access(2 * set_stride, false); // evicts line 0 from L1
    EXPECT_EQ(c.access(0, false), p.l2HitCycles); // still in L2
}

TEST(CacheModel, LruKeepsRecentlyUsed)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    const std::uint64_t s = p.l1Bytes / p.l1Assoc;
    c.access(0, false);
    c.access(s, false);
    c.access(0, false);      // refresh line 0
    c.access(2 * s, false);  // should evict line s, not 0
    EXPECT_EQ(c.access(0, false), 0u);
    EXPECT_NE(c.access(s, false), 0u);
}

TEST(CacheModel, AccessRangeWalksLines)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    const Cycles cold = c.accessRange(0, 256, false); // 8 lines
    EXPECT_EQ(cold, 8 * p.memCycles);
    EXPECT_EQ(c.accessRange(0, 256, false), 0u); // all hits now
}

TEST(CacheModel, AccessRangeZeroBytes)
{
    CacheModel c(smallParams());
    EXPECT_EQ(c.accessRange(100, 0, false), 0u);
}

TEST(CacheModel, InvalidateRangeForcesMisses)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    c.accessRange(0, 128, false);
    EXPECT_EQ(c.accessRange(0, 128, false), 0u);
    c.invalidateRange(0, 128);
    EXPECT_EQ(c.accessRange(0, 128, false), 4 * p.memCycles);
}

TEST(CacheModel, ResetDropsEverything)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    c.access(0, false);
    c.reset();
    EXPECT_EQ(c.access(0, false), p.memCycles);
}

TEST(CacheModel, StatsCountHitsAndMisses)
{
    CacheModel c(smallParams());
    c.access(0, false);
    c.access(0, false);
    c.access(0, true);
    EXPECT_EQ(c.l1Misses().value(), 1u);
    EXPECT_EQ(c.l1Hits().value(), 2u);
    EXPECT_EQ(c.l2Misses().value(), 1u);
}

TEST(CacheModel, CapacityEvictionToMemory)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // Touch far more distinct lines than L2 capacity, then re-touch the
    // first: must be a full memory miss again.
    const std::uint64_t lines = (p.l2Bytes / p.lineBytes) * 4;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * p.lineBytes, false);
    EXPECT_EQ(c.access(0, false), p.memCycles);
}

TEST(CacheModel, RejectsNonPowerOfTwoGeometry)
{
    MemoryParams p = smallParams();
    p.lineBytes = 48;
    EXPECT_THROW(CacheModel c(p), FatalError);
}

TEST(CacheModel, StreamFitsInL2ButNotL1)
{
    const MemoryParams p = smallParams();
    CacheModel c(p);
    // A 4 KB stream (128 lines) fits in the 8 KB L2 but not the 1 KB
    // L1; a sequential re-walk therefore hits L2 on every line (the L1
    // working set is always the 32 most recent lines, which the walk
    // itself keeps evicting ahead of reuse).
    c.accessRange(0, 4096, true);
    EXPECT_EQ(c.accessRange(0, 4096, false), 128 * p.l2HitCycles);
}

TEST(SimdDispatch, LevelNames)
{
    // Benchmark reports name the host by these strings.
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

} // namespace
} // namespace swsm
