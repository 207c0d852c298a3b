/**
 * @file
 * Unit tests for the two-level cache timing model and the host SIMD
 * level descriptor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

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
    p = smallParams();
    p.l1Assoc = 3; // 1024 B / (3 x 32 B) = 10 sets
    EXPECT_THROW(CacheModel c(p), FatalError);
    p = smallParams();
    p.l2Assoc = 0; // no sets at all
    EXPECT_THROW(CacheModel c(p), FatalError);
    p = smallParams();
    p.l1Assoc = 3;
    p.l1Bytes = 3 * 1024; // 32 sets of 3 ways
    EXPECT_NO_THROW(CacheModel c(p));
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

/**
 * The tag + LRU-stamp cache that CacheModel's recency-ordered sets
 * replaced, kept as the reference they must match: each way carries
 * the time of its last use, a miss evicts the way with the lowest
 * stamp, and an empty or invalidated way has stamp 0.
 */
class StampLru
{
  public:
    explicit StampLru(const MemoryParams &p)
        : p(p), l1(p.l1Bytes, p.l1Assoc, p.lineBytes),
          l2(p.l2Bytes, p.l2Assoc, p.lineBytes)
    {}

    Cycles
    access(GlobalAddr addr)
    {
        const std::uint64_t line = addr / p.lineBytes;
        ++stamp;
        if (l1.lookupInsert(line, stamp))
            return ++l1Hits, 0;
        ++l1Misses;
        if (l2.lookupInsert(line, stamp))
            return ++l2Hits, p.l2HitCycles;
        return ++l2Misses, p.memCycles;
    }

    Cycles
    accessRange(GlobalAddr addr, std::uint64_t bytes)
    {
        Cycles total = 0;
        for (std::uint64_t l = addr / p.lineBytes;
             bytes && l <= (addr + bytes - 1) / p.lineBytes; ++l)
            total += access(l * p.lineBytes);
        return total;
    }

    void
    invalidateRange(GlobalAddr addr, std::uint64_t bytes)
    {
        for (std::uint64_t l = addr / p.lineBytes;
             bytes && l <= (addr + bytes - 1) / p.lineBytes; ++l) {
            l1.invalidate(l);
            l2.invalidate(l);
        }
    }

    std::uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;

  private:
    struct Level
    {
        Level(std::uint64_t bytes, std::uint64_t assoc, std::uint64_t line)
            : sets(bytes / (line * assoc)), assoc(assoc),
              tags(sets * assoc), stamps(sets * assoc)
        {}

        bool
        lookupInsert(std::uint64_t line, std::uint64_t stamp)
        {
            const std::size_t base = (line % sets) * assoc;
            std::size_t victim = base;
            for (std::size_t w = base; w < base + assoc; ++w) {
                if (tags[w] == line + 1)
                    return stamps[w] = stamp, true;
                if (stamps[w] < stamps[victim])
                    victim = w;
            }
            tags[victim] = line + 1;
            stamps[victim] = stamp;
            return false;
        }

        void
        invalidate(std::uint64_t line)
        {
            const std::size_t base = (line % sets) * assoc;
            for (std::size_t w = base; w < base + assoc; ++w) {
                if (tags[w] == line + 1)
                    tags[w] = stamps[w] = 0;
            }
        }

        std::uint64_t sets, assoc;
        std::vector<std::uint64_t> tags, stamps;
    };

    MemoryParams p;
    Level l1, l2;
    std::uint64_t stamp = 0;
};

/**
 * Drive CacheModel and StampLru with one seeded mix of accesses,
 * unaligned 0-8 KB range walks and invalidations, and compare every
 * returned stall and all four counters after every operation. Half
 * the addresses fall in a window twice the L1, the rest in four times
 * the L2, so L1 hits, L2 hits, misses and invalidated ways in the
 * middle of a set all occur often.
 */
void
expectMatchesStampLru(const MemoryParams &p, std::uint64_t seed)
{
    CacheModel model(p);
    StampLru ref(p);
    std::mt19937_64 rng(seed);
    const std::uint64_t hot = 2 * std::uint64_t{p.l1Bytes};
    const std::uint64_t span = 4 * std::uint64_t{p.l2Bytes};
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t r = rng();
        const GlobalAddr addr = rng() % (r & 1 ? hot : span);
        const std::uint64_t bytes = rng() % (8 * 1024 + 1);
        const bool write = r & 2;
        switch ((r >> 2) % 8) {
          case 0:
            model.invalidateRange(addr, bytes);
            ref.invalidateRange(addr, bytes);
            break;
          case 1:
          case 2:
            ASSERT_EQ(model.accessRange(addr, bytes, write),
                      ref.accessRange(addr, bytes))
                << "op " << op << ": accessRange(" << addr << ", "
                << bytes << ")";
            break;
          default:
            ASSERT_EQ(model.access(addr, write), ref.access(addr))
                << "op " << op << ": access(" << addr << ")";
        }
        ASSERT_EQ(model.l1Hits().value(), ref.l1Hits) << "op " << op;
        ASSERT_EQ(model.l1Misses().value(), ref.l1Misses) << "op " << op;
        ASSERT_EQ(model.l2Hits().value(), ref.l2Hits) << "op " << op;
        ASSERT_EQ(model.l2Misses().value(), ref.l2Misses) << "op " << op;
    }
    // The mix must reach every outcome, or the comparison proves little.
    EXPECT_GT(ref.l1Hits, 0u);
    EXPECT_GT(ref.l2Hits, 0u);
    EXPECT_GT(ref.l2Misses, 0u);
}

TEST(CacheModel, MatchesStampLruReference)
{
    const MemoryParams small = smallParams();
    MemoryParams direct = small;
    direct.l1Assoc = direct.l2Assoc = 1;
    MemoryParams eight_way = small;
    eight_way.l1Assoc = eight_way.l2Assoc = 8;
    MemoryParams line16 = small;
    line16.lineBytes = 16;
    MemoryParams line64;
    line64.lineBytes = 64;
    const std::pair<const char *, MemoryParams> geometries[] = {
        {"default", MemoryParams{}}, {"small", small},
        {"direct-mapped", direct},   {"8-way", eight_way},
        {"16 B lines", line16},      {"64 B lines", line64},
    };
    std::uint64_t seed = 1;
    for (const auto &[name, p] : geometries) {
        SCOPED_TRACE(name);
        expectMatchesStampLru(p, seed++);
        if (HasFatalFailure())
            return;
    }
}

TEST(SimdDispatch, LevelNames)
{
    // Benchmark reports name the host by these strings.
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

} // namespace
} // namespace swsm
