/**
 * @file
 * Schedule-fuzzer smoke test (ctest label: fuzz-smoke).
 *
 * Two seeded tiers per protocol:
 *
 *  - Litmus tier: the litmus suite over many seeded timing
 *    configurations on 4-node machines. Every failure message carries
 *    the seed and the exact replay command, so a red run here is
 *    immediately reproducible with
 *
 *      test_litmus --replay-seed=N --replay-protocol=<p>
 *
 *    The seed count defaults to 50 per protocol and can be bounded
 *    (CI) or raised (soak runs) with the SWSM_FUZZ_SEEDS environment
 *    variable.
 *  - Cluster tier: 40 fixed seeds of check::clusterMachineForSeed —
 *    fuzzed timing on 4-, 6- and 8-node machines — each running a
 *    lock-protected counter plus falsely-shared writes. The results
 *    are read back through Cluster::debugRead, and in a SWSM_CHECK
 *    build every protocol and network invariant is live on the way.
 */

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "check/fuzz.hh"
#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"

namespace swsm
{
namespace
{

int
seedCount()
{
    const char *env = std::getenv("SWSM_FUZZ_SEEDS");
    if (env) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0 && v <= 1000000)
            return static_cast<int>(v);
    }
    return 50;
}

void
fuzzProtocol(ProtocolKind kind)
{
    check::FuzzOptions opts;
    opts.protocol = kind;
    opts.baseSeed = 1;
    opts.numSeeds = seedCount();
    for (const check::FuzzFailure &f : check::fuzz(opts)) {
        ADD_FAILURE() << protocolKindName(kind) << " seed " << f.seed
                      << " test " << f.test << ": " << f.detail
                      << "\n  replay: test_litmus --replay-seed="
                      << f.seed << " --replay-protocol="
                      << protocolKindName(kind);
    }
}

/** Seeds of the cluster tier per protocol. */
constexpr std::uint64_t clusterSeeds = 40;

/** Rounds of the cluster kernel. Each takes the lock to increment
 *  a[0], then writes the node's four slots, which share a page with
 *  every other node's (false sharing). */
constexpr int clusterRounds = 2;

std::uint64_t
slotValue(int round, int id, int j)
{
    return static_cast<std::uint64_t>(round * 100 + id * 4 + j);
}

void
fuzzCluster(ProtocolKind kind)
{
    for (std::uint64_t seed = 1; seed <= clusterSeeds; ++seed) {
        const MachineParams mp = check::clusterMachineForSeed(kind, seed);
        Cluster c(mp);
        const LockId lock = c.allocLock();
        const BarrierId bar = c.allocBarrier();
        const auto a = SharedArray<std::uint64_t>::homedAt(c, 96, 0);
        for (int i = 0; i < 96; ++i)
            a.init(c, i, 0);
        c.run([&](Thread &t) {
            for (int round = 0; round < clusterRounds; ++round) {
                t.acquire(lock);
                a.put(t, 0, a.get(t, 0) + 1);
                t.release(lock);
                for (int j = 0; j < 4; ++j)
                    a.put(t, 8 + t.id() * 4 + j,
                          slotValue(round, t.id(), j));
                t.barrier(bar);
                std::uint64_t sum = 0;
                for (int i = 0; i < 8 + 4 * t.nprocs(); ++i)
                    sum += a.get(t, i);
                (void)sum;
                t.barrier(bar);
            }
        });

        const std::string label = std::string(protocolKindName(kind)) +
            " seed=" + std::to_string(seed) +
            " procs=" + std::to_string(mp.numProcs);
        EXPECT_EQ(a.peek(c, 0),
                  static_cast<std::uint64_t>(clusterRounds) * mp.numProcs)
            << label;
        for (int id = 0; id < mp.numProcs; ++id) {
            for (int j = 0; j < 4; ++j) {
                EXPECT_EQ(a.peek(c, 8 + id * 4 + j),
                          slotValue(clusterRounds - 1, id, j))
                    << label << " node " << id << " slot " << j;
            }
        }
        if (::testing::Test::HasFailure())
            break; // one seed is enough to diagnose
    }
}

TEST(FuzzSmoke, ScSeeds) { fuzzProtocol(ProtocolKind::Sc); }

TEST(FuzzSmoke, HlrcSeeds) { fuzzProtocol(ProtocolKind::Hlrc); }

TEST(FuzzSmoke, ClusterTopologiesSc) { fuzzCluster(ProtocolKind::Sc); }

TEST(FuzzSmoke, ClusterTopologiesHlrc) { fuzzCluster(ProtocolKind::Hlrc); }

TEST(FuzzSmoke, MutationsAreCaughtUnderFuzzing)
{
    // The fuzzer must catch each injected protocol mutation within a
    // handful of seeds — otherwise its schedules have no teeth.
    check::FuzzOptions broken_hlrc;
    broken_hlrc.protocol = ProtocolKind::Hlrc;
    broken_hlrc.numSeeds = 3;
    broken_hlrc.faults.dropDiffApply = true;
    EXPECT_FALSE(check::fuzz(broken_hlrc).empty());

    check::FuzzOptions broken_sc;
    broken_sc.protocol = ProtocolKind::Sc;
    broken_sc.numSeeds = 3;
    broken_sc.faults.skipScInvalidate = true;
    EXPECT_FALSE(check::fuzz(broken_sc).empty());
}

} // namespace
} // namespace swsm
