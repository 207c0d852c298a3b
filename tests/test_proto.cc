/**
 * @file
 * Protocol-level unit tests: HLRC diff/twin/notice machinery and SC
 * directory behaviour, observed through small targeted programs and
 * the protocols' event counters.
 */

#include <gtest/gtest.h>

#if defined(__GLIBC__) &&                                               \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define SWSM_HAVE_MALLINFO2 1
#else
#define SWSM_HAVE_MALLINFO2 0
#endif

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "proto/proto_params.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

MachineParams
machine(ProtocolKind kind, int procs, std::uint32_t block_bytes = 64)
{
    MachineParams mp;
    mp.numProcs = procs;
    mp.protocol = kind;
    mp.blockBytes = block_bytes;
    return mp;
}

// ---------------------------------------------------------------- HLRC

TEST(Hlrc, ReleaseFlushesDiffToHome)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    // One page homed at node 1, written by node 0 under a lock.
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 1);
    for (int i = 0; i < 512; ++i)
        a.init(c, i, 0);
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            t.acquire(lock);
            for (int i = 0; i < 10; ++i)
                a.put(t, i, 100 + i);
            t.release(lock);
        }
        t.barrier(bar);
    });
    // Non-home writer must have produced exactly one twin and one diff
    // with 10 changed 32-bit words (the written values 100..109 fit in
    // the low word of each 64-bit element; the zero high words compare
    // equal against the twin and drop out of the diff).
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.twinsCreated.value(), 1u);
    EXPECT_EQ(s.diffsCreated.value(), 1u);
    EXPECT_EQ(s.diffWordsWritten.value(), 10u);
    EXPECT_EQ(s.diffsApplied.value(), 1u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.peek(c, i), 100u + i);
}

TEST(Hlrc, HomeWritesNeedNoTwinOrDiff)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 0);
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            for (int i = 0; i < 100; ++i)
                a.put(t, i, i);
        }
        t.barrier(bar);
    });
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.twinsCreated.value(), 0u);
    EXPECT_EQ(s.diffsCreated.value(), 0u);
    EXPECT_EQ(a.peek(c, 50), 50u);
}

TEST(Hlrc, ReadFaultFetchesWholePageOnce)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 0); // one page
    for (int i = 0; i < 512; ++i)
        a.init(c, i, 7 * i);
    std::uint64_t sum = 0;
    c.run([&](Thread &t) {
        if (t.id() == 1) {
            for (int i = 0; i < 512; ++i)
                sum += a.get(t, i);
        }
        t.barrier(bar);
    });
    EXPECT_EQ(c.protocol().stats().pageFetches.value(), 1u);
    std::uint64_t expect = 0;
    for (int i = 0; i < 512; ++i)
        expect += 7u * i;
    EXPECT_EQ(sum, expect);
}

TEST(Hlrc, WriteNoticesInvalidateStaleCopies)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 0);
    a.init(c, 0, 1);
    std::uint64_t first = 0, second = 0;
    c.run([&](Thread &t) {
        if (t.id() == 1) {
            t.acquire(lock);
            first = a.get(t, 0); // caches the page
            t.release(lock);
        }
        t.barrier(bar);
        if (t.id() == 0) {
            t.acquire(lock);
            a.put(t, 0, 2);
            t.release(lock);
        }
        t.barrier(bar);
        if (t.id() == 1) {
            t.acquire(lock); // notices arrive with the barrier/lock
            second = a.get(t, 0);
            t.release(lock);
        }
        t.barrier(bar);
    });
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(second, 2u);
    EXPECT_GE(c.protocol().stats().invalidations.value(), 1u);
}

TEST(Hlrc, FalseSharingWritersMergeAtHome)
{
    // Two nodes write disjoint halves of the same page concurrently
    // (between the same barriers): the multiple-writer diffs must merge.
    Cluster c(machine(ProtocolKind::Hlrc, 3));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 2);
    for (int i = 0; i < 512; ++i)
        a.init(c, i, 0);
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            for (int i = 0; i < 256; ++i)
                a.put(t, i, 1000 + i);
        } else if (t.id() == 1) {
            for (int i = 256; i < 512; ++i)
                a.put(t, i, 2000 + i);
        }
        t.barrier(bar);
    });
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(a.peek(c, i), 1000u + i);
    for (int i = 256; i < 512; ++i)
        EXPECT_EQ(a.peek(c, i), 2000u + i);
    EXPECT_EQ(c.protocol().stats().diffsCreated.value(), 2u);
}

TEST(Hlrc, LockTokenCachesAtLastHolder)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    c.run([&](Thread &t) {
        if (t.id() == 1) {
            for (int i = 0; i < 10; ++i) {
                t.acquire(lock);
                t.compute(10);
                t.release(lock);
            }
        }
        t.barrier(bar);
    });
    // Only the first acquire goes remote; reacquisition hits the
    // cached token.
    EXPECT_EQ(c.protocol().stats().lockRequests.value(), 1u);
}

TEST(Hlrc, TokenHolderKeepsOneSuccessorPerLock)
{
    // Node 0 caches the tokens of locks A and B and sits inside both
    // critical sections when node 1 queues on A and node 2 on B: each
    // (lock, node) has its own successor slot, and both must be granted.
    Cluster c(machine(ProtocolKind::Hlrc, 3));
    const LockId lock_a = c.allocLock(); // managed by node 0
    const LockId lock_b = c.allocLock(); // managed by node 1
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> count(c, 2);
    count.init(c, 0, 0);
    count.init(c, 1, 0);
    const auto bump = [&](Thread &t, int i) {
        count.put(t, i, count.get(t, i) + 1);
    };
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            // Fetch B's token; both tokens then stay cached here.
            t.acquire(lock_a);
            bump(t, 0);
            t.release(lock_a);
            t.acquire(lock_b);
            bump(t, 1);
            t.release(lock_b);
        }
        t.barrier(bar);
        if (t.id() == 0) {
            t.acquire(lock_a);
            t.acquire(lock_b);
            bump(t, 0);
            bump(t, 1);
            t.compute(200000); // both waiters queue meanwhile
            t.release(lock_b);
            t.release(lock_a);
        } else {
            const LockId lock = t.id() == 1 ? lock_a : lock_b;
            t.compute(2000);
            t.acquire(lock);
            bump(t, t.id() - 1);
            t.release(lock);
        }
        t.barrier(bar);
    });
    EXPECT_EQ(count.peek(c, 0), 3u);
    EXPECT_EQ(count.peek(c, 1), 3u);
    // The waiters really queued behind node 0's long critical section.
    for (NodeId n : {1, 2}) {
        EXPECT_GT(c.node(n).allBuckets()[static_cast<int>(
                      TimeBucket::LockWait)],
                  100000u)
            << "node " << n;
    }
    // B's first fetch plus one grant per waiter.
    EXPECT_EQ(c.protocol().stats().lockHandoffs.value(), 3u);
}

TEST(Hlrc, ContendedLockChainsEveryNode)
{
    // 16 nodes take one lock once per round. Each round the previous
    // round's last holder reacquires its cached token and the other 15
    // queue, so the token chases a 15-long chain of single successors.
    constexpr int procs = 16;
    constexpr int rounds = 6;
    Cluster c(machine(ProtocolKind::Hlrc, procs));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> count(c, 1);
    count.init(c, 0, 0);
    c.run([&](Thread &t) {
        for (int r = 0; r < rounds; ++r) {
            t.acquire(lock);
            count.put(t, 0, count.get(t, 0) + 1);
            t.release(lock);
            t.barrier(bar);
        }
    });
    EXPECT_EQ(count.peek(c, 0),
              static_cast<std::uint64_t>(procs * rounds));
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.lockHandoffs.value(),
              static_cast<std::uint64_t>((procs - 1) * rounds));
    EXPECT_EQ(s.lockRequests.value(), s.lockHandoffs.value());
}

TEST(Hlrc, BarrierCarriesNoticesWithoutLocks)
{
    // Producer/consumer with only barriers: notices must still arrive.
    Cluster c(machine(ProtocolKind::Hlrc, 4));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 3);
    a.init(c, 0, 0);
    std::vector<std::uint64_t> seen(4, 0);
    c.run([&](Thread &t) {
        for (int round = 1; round <= 3; ++round) {
            if (t.id() == round % 4)
                a.put(t, 0, round);
            t.barrier(bar);
            seen[t.id()] = a.get(t, 0);
            t.barrier(bar);
        }
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i], 3u);
}

TEST(Hlrc, ProtocolTimeRespondsToDiffCost)
{
    // The same program under O vs B protocol costs: protocol buckets
    // must shrink to (nearly) zero with idealized costs.
    auto run_with = [](const ProtoParams &pp) {
        MachineParams mp = machine(ProtocolKind::Hlrc, 2);
        mp.proto = pp;
        Cluster c(mp);
        const LockId lock = c.allocLock();
        const BarrierId bar = c.allocBarrier();
        SharedArray<std::uint64_t> a =
            SharedArray<std::uint64_t>::homedAt(c, 512, 1);
        c.run([&](Thread &t) {
            for (int round = 0; round < 5; ++round) {
                if (t.id() == 0) {
                    t.acquire(lock);
                    for (int i = 0; i < 64; ++i)
                        a.put(t, i, round * 64 + i);
                    t.release(lock);
                }
                t.barrier(bar);
            }
        });
        Cycles proto = 0;
        for (NodeId n = 0; n < c.numProcs(); ++n) {
            const auto &buckets = c.node(n).allBuckets();
            for (int b = 0; b < numTimeBuckets; ++b)
                if (isProtoBucket(static_cast<TimeBucket>(b)))
                    proto += buckets[b];
        }
        return proto;
    };
    const Cycles original = run_with(ProtoParams::original());
    const Cycles best = run_with(ProtoParams::best());
    // The protocol buckets also hold the host send overheads of
    // protocol messages (a communication-layer cost), so they do not
    // reach zero at B; the protocol-operation share must still shrink
    // severalfold.
    EXPECT_GT(original, 3 * best);
}

// ------------------------------------------------------------------ SC

TEST(Sc, ReadSharingNeedsNoInvalidation)
{
    Cluster c(machine(ProtocolKind::Sc, 4));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 8, 0);
    a.init(c, 0, 42);
    c.run([&](Thread &t) {
        for (int round = 0; round < 3; ++round) {
            EXPECT_EQ(a.get(t, 0), 42u);
            t.barrier(bar);
        }
    });
    EXPECT_EQ(c.protocol().stats().invalidations.value(), 0u);
}

TEST(Sc, WriteInvalidatesAllSharers)
{
    Cluster c(machine(ProtocolKind::Sc, 4));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 8, 0);
    a.init(c, 0, 1);
    std::vector<std::uint64_t> seen(4);
    c.run([&](Thread &t) {
        a.get(t, 0); // everyone becomes a sharer
        t.barrier(bar);
        if (t.id() == 3)
            a.put(t, 0, 2);
        t.barrier(bar);
        seen[t.id()] = a.get(t, 0);
        t.barrier(bar);
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(seen[i], 2u);
    // Nodes 1 and 2 were invalidated (node 0 is the home and node 3
    // the writer).
    EXPECT_GE(c.protocol().stats().invalidations.value(), 2u);
}

TEST(Sc, OwnershipMigratesThroughRecall)
{
    Cluster c(machine(ProtocolKind::Sc, 3));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 8, 0);
    a.init(c, 0, 0);
    c.run([&](Thread &t) {
        for (int round = 0; round < 6; ++round) {
            if (round % 3 == t.id())
                a.put(t, 0, a.get(t, 0) + 1);
            t.barrier(bar);
        }
    });
    EXPECT_EQ(a.peek(c, 0), 6u);
}

TEST(Sc, GranularityControlsFetchCount)
{
    // Reading 4 KB sequentially: at 64 B granularity ~64 fetches, at
    // 4 KB granularity exactly 1.
    auto fetches = [](std::uint32_t block_bytes) {
        Cluster c(machine(ProtocolKind::Sc, 2, block_bytes));
        const BarrierId bar = c.allocBarrier();
        SharedArray<std::uint64_t> a =
            SharedArray<std::uint64_t>::homedAt(c, 512, 0);
        c.run([&](Thread &t) {
            if (t.id() == 1) {
                for (int i = 0; i < 512; ++i)
                    a.get(t, i);
            }
            t.barrier(bar);
        });
        return c.protocol().stats().pageFetches.value();
    };
    EXPECT_EQ(fetches(4096), 1u);
    EXPECT_EQ(fetches(64), 64u);
}

TEST(Sc, HomeFastPathAvoidsMessages)
{
    Cluster c(machine(ProtocolKind::Sc, 2));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 512, 0);
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            for (int i = 0; i < 512; ++i)
                a.put(t, i, i);
        }
        t.barrier(bar);
    });
    // Home writes with an idle directory take no protocol messages;
    // only the barrier communicates.
    EXPECT_EQ(c.protocol().stats().pageFetches.value(), 0u);
}

TEST(Sc, StoreBoundToGrantSurvivesStealing)
{
    // Heavy write contention on one block: every increment must land
    // even with grants being stolen immediately (install-time stores).
    Cluster c(machine(ProtocolKind::Sc, 8));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 8, 0);
    a.init(c, 0, 0);
    c.run([&](Thread &t) {
        for (int i = 0; i < 20; ++i) {
            t.acquire(lock);
            a.put(t, 0, a.get(t, 0) + 1);
            t.release(lock);
        }
        t.barrier(bar);
    });
    EXPECT_EQ(a.peek(c, 0), 160u);
}

// ------------------------------------------------- cross-protocol P

struct RandomProgramCase
{
    ProtocolKind kind;
    int procs;
    std::uint64_t seed;
};

void
PrintTo(const RandomProgramCase &c, std::ostream *os)
{
    *os << protocolKindName(c.kind) << "/p" << c.procs << "/s" << c.seed;
}

/**
 * Property test: a randomized data-race-free program (lock-protected
 * random read-modify-writes plus barrier-separated phases) must leave
 * memory in a state equal to replaying the same logical operations
 * sequentially — on every protocol, processor count and seed.
 */
class RandomDrfProgram
    : public ::testing::TestWithParam<RandomProgramCase>
{
};

TEST_P(RandomDrfProgram, MatchesSequentialOracle)
{
    const auto &param = GetParam();
    constexpr int cells = 64;
    constexpr int rounds = 3;
    constexpr int ops_per_round = 25;

    MachineParams mp = machine(param.kind, param.procs);
    mp.seed = param.seed;
    Cluster c(mp);
    const BarrierId bar = c.allocBarrier();
    std::vector<LockId> locks(8);
    for (auto &l : locks)
        l = c.allocLock();
    SharedArray<std::uint64_t> a(c, cells);
    for (int i = 0; i < cells; ++i)
        a.init(c, i, 0);

    // Pre-generate each thread's operation list so the oracle can
    // replay it. Every cell is protected by locks[cell % 8].
    struct Op
    {
        int cell;
        std::uint64_t delta;
    };
    std::vector<std::vector<std::vector<Op>>> plan(
        rounds,
        std::vector<std::vector<Op>>(param.procs));
    Rng plan_rng(param.seed * 77 + 5);
    for (int r = 0; r < rounds; ++r) {
        for (int p = 0; p < param.procs; ++p) {
            for (int o = 0; o < ops_per_round; ++o) {
                plan[r][p].push_back(
                    Op{static_cast<int>(plan_rng.nextBounded(cells)),
                       plan_rng.nextBounded(1000)});
            }
        }
    }

    c.run([&](Thread &t) {
        for (int r = 0; r < rounds; ++r) {
            for (const Op &op : plan[r][t.id()]) {
                t.acquire(locks[op.cell % 8]);
                a.put(t, op.cell, a.get(t, op.cell) + op.delta);
                t.release(locks[op.cell % 8]);
            }
            t.barrier(bar);
        }
    });

    std::vector<std::uint64_t> oracle(cells, 0);
    for (int r = 0; r < rounds; ++r)
        for (int p = 0; p < param.procs; ++p)
            for (const Op &op : plan[r][p])
                oracle[op.cell] += op.delta;
    for (int i = 0; i < cells; ++i)
        EXPECT_EQ(a.peek(c, i), oracle[i]) << "cell " << i;
}

std::vector<RandomProgramCase>
randomCases()
{
    std::vector<RandomProgramCase> cases;
    for (auto kind :
         {ProtocolKind::Hlrc, ProtocolKind::Sc, ProtocolKind::Ideal}) {
        for (int procs : {2, 5, 16}) {
            for (std::uint64_t seed : {1ull, 2ull, 3ull})
                cases.push_back({kind, procs, seed});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDrfProgram, ::testing::ValuesIn(randomCases()),
    [](const ::testing::TestParamInfo<RandomProgramCase> &info) {
        return std::string(protocolKindName(info.param.kind)) + "_p" +
               std::to_string(info.param.procs) + "_s" +
               std::to_string(info.param.seed);
    });

// --------------------------------------------------------------- Ideal

TEST(Ideal, SharedAccessesMoveRealBytesWithNoMessages)
{
    Cluster c(machine(ProtocolKind::Ideal, 4));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 256, 0);
    std::uint64_t sums[4] = {};
    c.run([&](Thread &t) {
        // Each thread publishes a quarter; everyone sums after the
        // barrier. The ideal protocol is a plain memcpy to the single
        // backing store, so no protocol or network traffic may appear.
        for (int i = t.id() * 64; i < (t.id() + 1) * 64; ++i)
            a.put(t, i, 3u * i + 1);
        t.barrier(bar);
        for (int i = 0; i < 256; ++i)
            sums[t.id()] += a.get(t, i);
    });
    std::uint64_t expect = 0;
    for (int i = 0; i < 256; ++i)
        expect += 3u * i + 1;
    for (int p = 0; p < 4; ++p)
        EXPECT_EQ(sums[p], expect) << "thread " << p;
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.protoMsgs.value(), 0u);
    EXPECT_EQ(s.readFaults.value(), 0u);
    EXPECT_EQ(s.writeFaults.value(), 0u);
    EXPECT_EQ(c.stats().metrics.counter("net.messages"), 0u);
}

TEST(Ideal, LockMutualExclusionCountsExactly)
{
    constexpr int procs = 4, iters = 25;
    Cluster c(machine(ProtocolKind::Ideal, procs));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> counter =
        SharedArray<std::uint64_t>::homedAt(c, 1, 0);
    counter.init(c, 0, 0);
    c.run([&](Thread &t) {
        for (int i = 0; i < iters; ++i) {
            t.acquire(lock);
            counter.put(t, 0, counter.get(t, 0) + 1);
            t.release(lock);
            t.compute(10 + t.rng().nextBounded(50));
        }
        t.barrier(bar);
    });
    EXPECT_EQ(counter.peek(c, 0),
              static_cast<std::uint64_t>(procs) * iters);
    const ProtoStats &s = c.protocol().stats();
    EXPECT_EQ(s.lockRequests.value(),
              static_cast<std::uint64_t>(procs) * iters);
    EXPECT_EQ(c.stats().metrics.counter("net.messages"), 0u);
}

TEST(Ideal, BarrierEpisodesSeparatePhases)
{
    constexpr int procs = 3, phases = 5;
    Cluster c(machine(ProtocolKind::Ideal, procs));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> slots =
        SharedArray<std::uint64_t>::homedAt(c, procs, 0);
    std::string error;
    c.run([&](Thread &t) {
        for (int ph = 0; ph < phases; ++ph) {
            slots.put(t, t.id(), 100u * ph + t.id());
            t.barrier(bar);
            for (int j = 0; j < procs; ++j) {
                if (slots.get(t, j) != 100u * ph + j && error.empty())
                    error = "stale slot read after barrier";
            }
            t.barrier(bar);
        }
    });
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(c.protocol().stats().barrierEpisodes.value(),
              static_cast<std::uint64_t>(2 * phases));
}

TEST(Ideal, UniprocessorRunsSequentially)
{
    // The 1-proc Ideal machine is the sequential baseline: every
    // operation must work with no peers and leave clean final state.
    Cluster c(machine(ProtocolKind::Ideal, 1));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint64_t> a =
        SharedArray<std::uint64_t>::homedAt(c, 16, 0);
    c.run([&](Thread &t) {
        t.acquire(lock);
        for (int i = 0; i < 16; ++i)
            a.put(t, i, 2u * i);
        t.release(lock);
        t.barrier(bar);
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.peek(c, i), 2u * i);
    EXPECT_EQ(c.stats().metrics.counter("net.messages"), 0u);
}

// -------------------------------------------------------------- memory

/** Heap bytes in use (glibc mallinfo2: arenas plus mmapped chunks), or
 *  -1 where that call is unavailable. */
std::int64_t
heapBytes()
{
#if SWSM_HAVE_MALLINFO2
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
#else
    return -1;
#endif
}

/**
 * Heap growth of a 16-node cluster under @p kind with @p locks locks
 * and @p shared_bytes of shared memory allocated, measured after a run
 * through one barrier while the cluster is still alive.
 */
std::int64_t
clusterHeapGrowth(ProtocolKind kind, int locks, std::uint64_t shared_bytes)
{
    const std::int64_t before = heapBytes();
    Cluster c(machine(kind, 16));
    for (int i = 0; i < locks; ++i)
        c.allocLock();
    const BarrierId bar = c.allocBarrier();
    if (shared_bytes > 0)
        c.alloc(shared_bytes);
    c.run([&](Thread &t) { t.barrier(bar); });
    return heapBytes() - before;
}

TEST(ProtoMemory, LockStateIsAtMost200BytesPerLock)
{
    if (heapBytes() < 0)
        GTEST_SKIP() << "needs glibc mallinfo2()";
    // Barnes allocates one lock per tree cell (393,729 at Paper size),
    // so per-lock state must not grow with queue capacity.
    constexpr int locks = 50000;
    for (auto kind :
         {ProtocolKind::Hlrc, ProtocolKind::Sc, ProtocolKind::Ideal}) {
        const std::int64_t grown = clusterHeapGrowth(kind, locks, 0) -
            clusterHeapGrowth(kind, 0, 0);
        EXPECT_LE(grown / locks, 200) << protocolKindName(kind);
    }
}

TEST(ProtoMemory, HlrcPageIsAtMost5000BytesAt16Nodes)
{
    if (heapBytes() < 0)
        GTEST_SKIP() << "needs glibc mallinfo2()";
    // Per 4 KB page before any fetch: its home store and home id, and
    // per node a PageCopy (dirty flag and twin), an access table entry
    // and a diff sequence slot: 4,804 bytes. The bound is below the
    // 5,188 that a byte vector in every PageCopy adds up to, so fetched
    // copies must come from the protocol base's chunks.
    constexpr std::uint64_t bytes = 4u << 20;
    constexpr std::int64_t pages = bytes / 4096;
    const std::int64_t grown =
        clusterHeapGrowth(ProtocolKind::Hlrc, 0, bytes) -
        clusterHeapGrowth(ProtocolKind::Hlrc, 0, 0);
    EXPECT_LE(grown / pages, 5000);
}

TEST(ProtoMemory, ScDirectoryIsAtMost800BytesPerBlock)
{
    if (heapBytes() < 0)
        GTEST_SKIP() << "needs glibc mallinfo2()";
    // Per 64-byte block: its home store, the directory entry and one
    // copy record per node.
    constexpr std::uint64_t bytes = 4u << 20;
    constexpr std::int64_t blocks = bytes / 64;
    const std::int64_t grown =
        clusterHeapGrowth(ProtocolKind::Sc, 0, bytes) -
        clusterHeapGrowth(ProtocolKind::Sc, 0, 0);
    EXPECT_LE(grown / blocks, 800);
}

} // namespace
} // namespace swsm
