/**
 * @file
 * Fast-path correctness: the per-node access table Thread checks
 * inline and HLRC's diff and apply loops, plus the property the whole
 * design hangs on — a simulation runs bit-identically with the fast
 * path on and off (same cycles, same protocol, network and data-path
 * counters), across protocols and geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "proto/access_table.hh"
#include "proto/hlrc/diff.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

// --------------------------------------------------------- AccessTable

TEST(AccessTable, RightsGateLoadsAndStores)
{
    AccessTable t;
    t.resize(4096, 4 * 4096);
    alignas(8) std::uint8_t page[4096] = {};
    EXPECT_EQ(t.lookup(0x1000, 4, false), nullptr);
    t.set(1, page, Rights::None);
    EXPECT_EQ(t.lookup(0x1000, 4, false), nullptr);
    EXPECT_EQ(t.lookup(0x1000, 4, true), nullptr);
    t.setRights(1, Rights::Read);
    EXPECT_EQ(t.lookup(0x1010, 4, false), page + 0x10);
    EXPECT_EQ(t.lookup(0x1010, 4, true), nullptr);
    t.setRights(1, Rights::ReadWrite);
    EXPECT_EQ(t.lookup(0x1010, 4, false), page + 0x10);
    EXPECT_EQ(t.lookup(0x1ff8, 8, true), page + 0xff8);
    // The neighbours were never set.
    EXPECT_EQ(t.lookup(0x0ffc, 4, false), nullptr);
    EXPECT_EQ(t.lookup(0x2000, 4, false), nullptr);
}

TEST(AccessTable, ReferencesCrossingAUnitOrTheLimitMiss)
{
    AccessTable t;
    // Three 64-byte units; the last one is cut short at 160.
    t.resize(64, 160);
    alignas(64) std::uint8_t copy[3][64] = {};
    for (std::size_t u = 0; u < 3; ++u)
        t.set(u, copy[u], Rights::ReadWrite);
    EXPECT_NE(t.lookup(56, 8, false), nullptr);
    EXPECT_EQ(t.lookup(60, 8, false), nullptr); // crosses 64
    EXPECT_NE(t.lookup(152, 8, true), nullptr);
    EXPECT_EQ(t.lookup(156, 8, true), nullptr); // crosses the limit
    EXPECT_EQ(t.lookup(160, 1, false), nullptr);
    EXPECT_EQ(t.lookup(1u << 20, 4, false), nullptr);
    // A last byte that wraps around the address space.
    EXPECT_EQ(t.lookup(~GlobalAddr{0} - 3, 8, false), nullptr);
    EXPECT_EQ(t.unitEnd(70), 128u);
    EXPECT_EQ(t.unitEnd(130), 160u);
}

TEST(AccessTable, DroppingRightsKeepsTheBytes)
{
    AccessTable t;
    t.resize(64, 64 * 8);
    alignas(64) std::uint8_t copy[64] = {};
    t.set(5, copy, Rights::ReadWrite);
    t.setRights(5, Rights::None);
    EXPECT_EQ(t.rights(5), Rights::None);
    EXPECT_EQ(t.bytes(5), copy);
    EXPECT_EQ(t.lookup(5 * 64, 4, false), nullptr);
    t.setRights(5, Rights::Read);
    EXPECT_EQ(t.rights(5), Rights::Read);
    EXPECT_EQ(t.lookup(5 * 64 + 4, 4, false), copy + 4);
    EXPECT_EQ(t.bytes(4), nullptr);
}

TEST(AccessTable, WholeSpaceUnitResolvesRangesAsOneChunk)
{
    // Ideal's shape: one unit of the next power of two, cut at the
    // space's extent.
    std::vector<std::uint8_t> store(5 * 4096);
    AccessTable t;
    t.resize(std::bit_ceil(store.size()), store.size());
    t.set(0, store.data(), Rights::ReadWrite);
    EXPECT_EQ(t.lookup(123 * 4 + 4096, 1, true), store.data() + 4588);
    EXPECT_EQ(t.unitEnd(17), store.size());
    EXPECT_EQ(t.unitEnd(4 * 4096 + 1), store.size());
    EXPECT_EQ(t.lookup(store.size() - 4, 8, false), nullptr);
}

TEST(AccessTable, CountsHitsAndMisses)
{
    AccessTable t;
    t.resize(4096, 4096);
    alignas(8) std::uint8_t page[4096] = {};
    t.set(0, page, Rights::Read);
    (void)t.lookup(0, 4, false);
    (void)t.lookup(8, 4, false);
    (void)t.lookup(0, 4, true);
    (void)t.lookup(4096, 4, false);
    EXPECT_EQ(t.hits(), 2u);
    EXPECT_EQ(t.misses(), 2u);
}

TEST(AccessTable, RejectsBadUnitSizes)
{
    AccessTable t;
    EXPECT_THROW(t.resize(2, 64), FatalError);
    EXPECT_THROW(t.resize(96, 192), FatalError);
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

// ------------------------------------------------------ Run fixtures

/** A kernel sets up shared state on the cluster, then returns the
 *  SPMD body. */
using Kernel = std::function<std::function<void(Thread &)>(Cluster &)>;

/** Lock-serialized read-modify-writes plus private slots: exercises
 *  single-reference hits, twins, diffs and notice invalidations, and
 *  every acquire/release goes through the lock home. */
Kernel
lockCounterKernel()
{
    return [](Cluster &c) {
        const LockId lock = c.allocLock();
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint32_t>>(
            SharedArray<std::uint32_t>::homedAt(c, 64, 0));
        for (int i = 0; i < 64; ++i)
            a->init(c, i, 0);
        return [lock, bar, a](Thread &t) {
            for (int round = 0; round < 4; ++round) {
                t.acquire(lock);
                a->put(t, 0, a->get(t, 0) + 1);
                a->put(t, 1 + t.id(), a->get(t, 1 + t.id()) + 3);
                t.release(lock);
                t.compute(57);
            }
            t.barrier(bar);
            std::uint32_t sum = 0;
            for (int i = 0; i < 64; ++i)
                sum += a->get(t, i);
            if (sum != 4u * t.nprocs() + 12u * t.nprocs())
                SWSM_PANIC("lock counter kernel read %u", sum);
            t.barrier(bar);
        };
    };
}

/** Barrier epochs of falsely-shared writes: exercises early flushes,
 *  multi-writer diffs, repeated twin create/discard cycles and many
 *  same-cycle cross-node messages (the tie-break stamps' worst case). */
Kernel
falseSharingKernel()
{
    return [](Cluster &c) {
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint64_t>>(
            SharedArray<std::uint64_t>::homedAt(c, 128, 1));
        for (int i = 0; i < 128; ++i)
            a->init(c, i, 0);
        return [bar, a](Thread &t) {
            for (int epoch = 1; epoch <= 3; ++epoch) {
                for (int j = 0; j < 8; ++j)
                    a->put(t, t.id() * 8 + j,
                           static_cast<std::uint64_t>(epoch * 100 +
                                                      t.id() * 8 + j));
                t.barrier(bar);
                std::uint64_t sum = 0;
                for (int i = 0; i < 8 * t.nprocs(); ++i)
                    sum += a->get(t, i);
                (void)sum;
                t.barrier(bar);
            }
        };
    };
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

/** Everything a run produces that the fast path must not change. */
struct RunResult
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** References the inline check resolved (machine.fastpath_hits). */
    std::uint64_t inlineHits = 0;
};

/**
 * One arm of the on/off comparison. The fast path's only legitimate
 * difference is its own telemetry, machine.fastpath_*; the data-path
 * loops' mem.simd_* must match too (every diff scans its whole page).
 */
RunResult
runArm(ProtocolKind kind, bool fast_path, std::uint32_t page_bytes,
       std::uint32_t block_bytes, const Kernel &kernel,
       Cycles access_check)
{
    MachineParams mp;
    mp.numProcs = 4;
    mp.protocol = kind;
    mp.pageBytes = page_bytes;
    mp.blockBytes = block_bytes;
    mp.fastPath = fast_path;
    mp.accessCheckCycles = access_check;
    Cluster c(mp);
    c.run(kernel(c));

    RunResult r;
    r.total = c.stats().totalCycles;
    r.finish = c.stats().finishTimes;
    r.inlineHits = c.stats().metrics.counter("machine.fastpath_hits");
    for (const auto &[name, value] : c.stats().metrics.counters) {
        if (!name.starts_with("machine.fastpath_"))
            r.counters.emplace_back(name, value);
    }
    return r;
}

/** Run @p kernel with the fast path on and off, expect the same
 *  results, and return the fast-path-on run's. */
RunResult
expectEquivalent(ProtocolKind kind, std::uint32_t page_bytes,
                 std::uint32_t block_bytes, const Kernel &kernel,
                 Cycles access_check = 0)
{
    const RunResult on = runArm(kind, true, page_bytes, block_bytes,
                                kernel, access_check);
    const RunResult off = runArm(kind, false, page_bytes, block_bytes,
                                 kernel, access_check);
    EXPECT_EQ(off.total, on.total);
    EXPECT_EQ(off.finish, on.finish);
    EXPECT_EQ(off.inlineHits, 0u);
    EXPECT_EQ(off.counters.size(), on.counters.size());
    for (std::size_t i = 0;
         i < std::min(on.counters.size(), off.counters.size()); ++i) {
        EXPECT_EQ(off.counters[i], on.counters[i])
            << "counter " << on.counters[i].first << " fast path off";
    }
    return on;
}

/** The value of counter @p name in @p r. */
std::uint64_t
counterOf(const RunResult &r, const std::string &name)
{
    for (const auto &[n, value] : r.counters) {
        if (n == name)
            return value;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
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
    // Thread charges the access check before its inline check of each
    // reference or unit chunk, so the inline table stays in use and
    // the run is the same with the fast path on and off. The cycles
    // are pinned to those of the tree in which SC charged the check
    // inside its own load/store and every reference took that path.
    struct Pinned
    {
        const char *kernel;
        Kernel make;
        Cycles total;
        std::uint64_t protoOther;
    };
    const Pinned pinned[] = {
        {"lockCounter", lockCounterKernel(), 429740, 50160},
        {"falseSharing", falseSharingKernel(), 202099, 44040},
        {"bulkRange", bulkRangeKernel(), 353145, 87672},
    };
    for (const Pinned &p : pinned) {
        const RunResult on =
            expectEquivalent(ProtocolKind::Sc, 4096, 64, p.make, 3);
        EXPECT_GT(on.inlineHits, 0u) << p.kernel;
        EXPECT_EQ(on.total, p.total) << p.kernel;
        EXPECT_EQ(counterOf(on, "time.proto_other"), p.protoOther)
            << p.kernel;
    }
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
