/**
 * @file
 * Fast-path correctness: the per-thread access TLB and HLRC's diff
 * and apply loops, plus the property the whole overhaul hangs on — a
 * simulation runs bit-identically with the fast path on and off (same
 * cycles, same protocol, network and data-path counters), across
 * protocols and geometries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "machine/cluster.hh"
#include "machine/fast_path.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "proto/hlrc/diff.hh"
#include "sim_kernels.hh"

namespace swsm
{
namespace
{

// ------------------------------------------------------------ FastPath

TEST(FastPath, MissesUntilInstalledThenHits)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t page[4096] = {};
    EXPECT_EQ(fp.lookup(0x1000, 4, false), nullptr);
    fp.install(0x1000, 0x2000, page, false);
    FastPath::Entry *e = fp.lookup(0x1000, 4, false);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->data, page);
    EXPECT_EQ(fp.hits(), 1u);
    EXPECT_EQ(fp.misses(), 1u);
    EXPECT_EQ(fp.installs(), 1u);
}

TEST(FastPath, WritableGatingAndLimits)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t page[4096] = {};
    fp.install(0x1000, 0x2000, page, false);
    // Read anywhere in range, but never write through a read-only
    // entry, and never let an access cross the entry's limit.
    EXPECT_NE(fp.lookup(0x1ffc, 4, false), nullptr);
    EXPECT_EQ(fp.lookup(0x1000, 4, true), nullptr);
    EXPECT_EQ(fp.lookup(0x1ffe, 4, false), nullptr);
    EXPECT_EQ(fp.lookup(0x0fff, 4, false), nullptr);
    fp.install(0x1000, 0x2000, page, true);
    EXPECT_NE(fp.lookup(0x1000, 4, true), nullptr);
}

TEST(FastPath, SlotCollisionEvicts)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t a[4096] = {}, b[4096] = {};
    // Pages 0 and numSlots map to the same direct-mapped slot.
    const GlobalAddr second = FastPath::numSlots * GlobalAddr{4096};
    fp.install(0, 4096, a, false);
    fp.install(second, second + 4096, b, false);
    EXPECT_EQ(fp.lookup(0, 4, false), nullptr);
    EXPECT_NE(fp.lookup(second, 4, false), nullptr);
}

TEST(FastPath, InvalidateRangeDropsOverlappingEntries)
{
    FastPath fp;
    fp.configure(12, false);
    std::uint8_t a[4096] = {}, b[4096] = {};
    fp.install(0x1000, 0x2000, a, false);
    fp.install(0x3000, 0x4000, b, false);
    fp.invalidateRange(0x1000, 0x2000);
    EXPECT_EQ(fp.lookup(0x1000, 4, false), nullptr);
    EXPECT_NE(fp.lookup(0x3000, 4, false), nullptr);
    EXPECT_EQ(fp.invalidations(), 1u);
    fp.invalidateAll();
    EXPECT_EQ(fp.lookup(0x3000, 4, false), nullptr);
}

TEST(FastPath, GlobalEntryCoversEverySlot)
{
    FastPath fp;
    fp.configure(12, true);
    std::vector<std::uint8_t> store(1 << 21);
    fp.installGlobal(0, store.size(), store.data(), true);
    // Addresses in pages that map to different slots all hit, and a
    // range lookup sees the full extent as one chunk.
    FastPath::Entry *e = fp.lookup(123 * 4096 + 5, 1, true);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->base, 0u);
    EXPECT_EQ(e->limit, store.size());
    EXPECT_NE(fp.lookup(500 * 4096, 8, false), nullptr);
}

// ------------------------------------------------------- Diff kernels

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** Byte-compare diff reference: one memcmp per word. */
hlrcdiff::DiffWords
naiveDiff(const std::uint8_t *cur, const std::uint8_t *twin,
          std::uint32_t bytes, std::uint32_t word0)
{
    hlrcdiff::DiffWords out;
    for (std::uint32_t w = 0; w < bytes / 4; ++w) {
        if (std::memcmp(cur + w * 4, twin + w * 4, 4) != 0) {
            std::uint32_t value;
            std::memcpy(&value, cur + w * 4, 4);
            out.emplace_back(word0 + w, value);
        }
    }
    return out;
}

TEST(DiffKernels, DiffWordsMatchesNaive)
{
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    // Sizes: a single word, short spans, a ragged length and a whole
    // page.
    for (std::uint32_t bytes : {4u, 28u, 32u, 64u, 100u, 4096u}) {
        std::vector<std::uint8_t> twin(bytes);
        for (std::uint32_t i = 0; i < bytes; ++i)
            twin[i] = static_cast<std::uint8_t>(xorshift(seed));
        std::vector<std::uint8_t> cur = twin;
        // Flip a pseudo-random subset of words, including runs.
        for (std::uint32_t w = 0; w < bytes / 4; ++w) {
            if (xorshift(seed) % 3 == 0)
                cur[w * 4 + xorshift(seed) % 4] ^= 0x5a;
        }
        const std::uint32_t word0 =
            static_cast<std::uint32_t>(xorshift(seed) % 1000);
        hlrcdiff::DiffWords got;
        hlrcdiff::diffWords(cur.data(), twin.data(), bytes, word0, got);
        EXPECT_EQ(got, naiveDiff(cur.data(), twin.data(), bytes, word0))
            << "bytes=" << bytes;
    }
}

TEST(DiffKernels, DiffWordsAllSameAndAllDifferent)
{
    std::vector<std::uint8_t> a(256, 0x11), b(256, 0x11);
    hlrcdiff::DiffWords got;
    hlrcdiff::diffWords(a.data(), b.data(), 256, 0, got);
    EXPECT_TRUE(got.empty());
    b.assign(256, 0x22);
    got.clear();
    hlrcdiff::diffWords(a.data(), b.data(), 256, 7, got);
    ASSERT_EQ(got.size(), 64u);
    EXPECT_EQ(got.front().first, 7u);
    EXPECT_EQ(got.back().first, 7u + 63u);
    EXPECT_EQ(got.front().second, 0x11111111u);
}

TEST(DiffKernels, ApplyWordsMatchesNaiveStores)
{
    std::uint64_t seed = 0xfeedfacefeedfaceULL;
    std::vector<std::uint8_t> page(4096);
    for (auto &byte : page)
        byte = static_cast<std::uint8_t>(xorshift(seed));
    std::vector<std::uint8_t> want = page;
    // The common diff shape: long and short runs of consecutive words
    // and isolated scattered ones.
    hlrcdiff::DiffWords words;
    auto add = [&](std::uint32_t w) {
        const std::uint32_t value =
            static_cast<std::uint32_t>(xorshift(seed));
        words.emplace_back(w, value);
        std::memcpy(want.data() + w * 4, &value, 4);
    };
    for (std::uint32_t w = 10; w < 50; ++w)
        add(w); // 40-word run
    for (std::uint32_t w = 100; w < 107; ++w)
        add(w); // 7-word run
    for (std::uint32_t w = 200; w < 208; ++w)
        add(w); // 8-word run
    for (std::uint32_t i = 0; i < 16; ++i)
        add(300 + i * 11); // singles
    hlrcdiff::applyWords(page.data(), words);
    EXPECT_EQ(page, want);
}

TEST(DiffKernels, ApplyWordsEmptyIsNoOp)
{
    std::vector<std::uint8_t> page(64, 0x42);
    hlrcdiff::applyWords(page.data(), {});
    EXPECT_EQ(page, std::vector<std::uint8_t>(64, 0x42));
}

TEST(DiffKernels, HlrcRunReportsDataPathCounters)
{
    // A diff-heavy HLRC run must show twin copies and applied diff
    // words in its mem.simd_* counters (the benchmark reads them).
    MachineParams mp;
    mp.numProcs = 4;
    mp.protocol = ProtocolKind::Hlrc;
    Cluster c(mp);
    auto body = falseSharingKernel()(c);
    c.run(body);

    const MetricsSnapshot &m = c.stats().metrics;
    EXPECT_GT(m.counter("mem.simd_twin_copy_calls"), 0u);
    EXPECT_GT(m.counter("mem.simd_apply_words"), 0u);
}

// ------------------------------------------------- On/off equivalence

/**
 * One arm of the on/off comparison. The fast path's only legitimate
 * difference is its own telemetry, machine.fastpath_*; the data-path
 * loops' mem.simd_* must match too (every diff scans its whole page).
 */
RunResult
runArm(ProtocolKind kind, bool fast_path, std::uint32_t page_bytes,
       std::uint32_t block_bytes, const Kernel &kernel)
{
    MachineParams mp;
    mp.numProcs = 4;
    mp.protocol = kind;
    mp.pageBytes = page_bytes;
    mp.blockBytes = block_bytes;
    mp.fastPath = fast_path;
    return runKernel(mp, kernel, {"machine.fastpath_"});
}

void
expectEquivalent(ProtocolKind kind, std::uint32_t page_bytes,
                 std::uint32_t block_bytes, const Kernel &kernel)
{
    const RunResult on =
        runArm(kind, true, page_bytes, block_bytes, kernel);
    const RunResult off =
        runArm(kind, false, page_bytes, block_bytes, kernel);
    expectSameRun(on, off, "fast path off");
}

/** Unaligned bulk copies crossing page and block boundaries:
 *  exercises the range fast path and its slow-path handoff. */
Kernel
bulkRangeKernel()
{
    return [](Cluster &c) {
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint8_t>>(
            SharedArray<std::uint8_t>::homedAt(c, 3 * 4096, 0));
        for (int i = 0; i < 3 * 4096; ++i)
            a->init(c, i, static_cast<std::uint8_t>(i));
        return [bar, a](Thread &t) {
            std::vector<std::uint8_t> buf(2500);
            const GlobalAddr base = a->base() + 17 + t.id() * 2600;
            t.readBytes(base, buf.data(), buf.size());
            for (auto &byte : buf)
                byte = static_cast<std::uint8_t>(byte + 1 + t.id());
            t.barrier(bar);
            if (t.id() == 0)
                t.writeBytes(a->base() + 100, buf.data(), buf.size());
            t.barrier(bar);
            std::vector<std::uint8_t> check(300);
            t.readBytes(a->base() + 4000, check.data(), check.size());
            t.barrier(bar);
        };
    };
}

struct Geometry
{
    std::uint32_t pageBytes;
    std::uint32_t blockBytes;
};

const Geometry geometries[] = {{4096, 64}, {1024, 32}};

TEST(FastPathEquivalence, HlrcBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Hlrc, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, ScBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Sc, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, IdealBitIdenticalOnOff)
{
    for (const Geometry &g : geometries) {
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         lockCounterKernel());
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         falseSharingKernel());
        expectEquivalent(ProtocolKind::Ideal, g.pageBytes, g.blockBytes,
                         bulkRangeKernel());
    }
}

TEST(FastPathEquivalence, ScWithAccessCheckCostStaysEquivalent)
{
    // A nonzero access-check charge disables SC installs entirely;
    // the fast path must still be a no-op, not a divergence.
    auto run = [](bool fast_path) {
        MachineParams mp;
        mp.numProcs = 4;
        mp.protocol = ProtocolKind::Sc;
        mp.accessCheckCycles = 3;
        mp.fastPath = fast_path;
        Cluster c(mp);
        auto body = lockCounterKernel()(c);
        c.run(body);
        return c.stats().totalCycles;
    };
    EXPECT_EQ(run(true), run(false));
}

// ----------------------------------------- Diff exactness across epochs

TEST(FastPathDiff, SingleWordWritesProduceSingleWordDiffs)
{
    // Across several lock epochs, each non-home write interval must
    // diff exactly the words written: the twin is made fresh at each
    // write fault and dropped at each flush, so no epoch's write
    // reappears in a later diff.
    MachineParams mp;
    mp.numProcs = 2;
    mp.protocol = ProtocolKind::Hlrc;
    Cluster c(mp);
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint32_t> a =
        SharedArray<std::uint32_t>::homedAt(c, 1024, 0);
    for (int i = 0; i < 1024; ++i)
        a.init(c, i, 0);
    c.run([&](Thread &t) {
        if (t.id() == 1) {
            for (int epoch = 0; epoch < 5; ++epoch) {
                t.acquire(lock);
                a.put(t, 100 * epoch,
                      static_cast<std::uint32_t>(1000 + epoch));
                t.release(lock);
            }
        }
        t.barrier(bar);
    });
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.diffsCreated.value(), 5u);
    EXPECT_EQ(s.diffWordsWritten.value(), 5u);
    EXPECT_EQ(s.twinsCreated.value(), 5u);
    for (int epoch = 0; epoch < 5; ++epoch)
        EXPECT_EQ(a.peek(c, 100 * epoch), 1000u + epoch);
}

} // namespace
} // namespace swsm
