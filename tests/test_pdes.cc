/**
 * @file
 * Parallel event-kernel correctness: the property the PDES engine hangs
 * on is that a partitioned run is *bit-identical* to the serial kernel —
 * same total cycles, same per-node finish times, same protocol and
 * network counters — across protocols, kernels and partition counts.
 * Only the sim.pdes_* bookkeeping and the pending-event high-water mark
 * may differ (per-partition heaps see fewer events at once).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"
#include "sim_kernels.hh"

namespace swsm
{
namespace
{

RunResult
runPartitioned(ProtocolKind kind, int sim_threads, int num_procs,
               const Kernel &kernel)
{
    MachineParams mp;
    mp.numProcs = num_procs;
    mp.protocol = kind;
    mp.simThreads = sim_threads;
    // The engine's own bookkeeping and the pending-event high-water
    // mark are kept out of the equivalence comparison (mirroring
    // bench_diff.py): per-partition heaps see fewer events at once.
    return runKernel(mp, kernel, {"sim.pdes_", "sim.max_pending_events"});
}

void
expectEquivalent(ProtocolKind kind, int num_procs, const Kernel &kernel)
{
    const RunResult serial = runPartitioned(kind, 1, num_procs, kernel);
    for (const int threads : {2, 4}) {
        const RunResult par =
            runPartitioned(kind, threads, num_procs, kernel);
        expectSameRun(serial, par,
                      "with " + std::to_string(threads) + " partitions");
    }
}

/** Unbalanced compute phases: partitions drift far apart in simulated
 *  time, exercising the window bound rather than the lockstep case. */
Kernel
skewedComputeKernel()
{
    return [](Cluster &c) {
        const BarrierId bar = c.allocBarrier();
        auto a = std::make_shared<SharedArray<std::uint32_t>>(
            SharedArray<std::uint32_t>::homedAt(c, 32, 0));
        for (int i = 0; i < 32; ++i)
            a->init(c, i, 7);
        return [bar, a](Thread &t) {
            for (int round = 0; round < 3; ++round) {
                // Node n computes n*1000 cycles before touching shared
                // state, so partition clocks skew heavily.
                t.compute(1 + t.id() * 1000);
                a->put(t, t.id(), a->get(t, t.id()) + 1);
                const int peer = (t.id() + 1) % t.nprocs();
                (void)a->get(t, peer);
                t.barrier(bar);
            }
        };
    };
}

TEST(PdesEquivalence, HlrcLockCounter)
{
    expectEquivalent(ProtocolKind::Hlrc, 4, lockCounterKernel());
}

TEST(PdesEquivalence, HlrcFalseSharing)
{
    expectEquivalent(ProtocolKind::Hlrc, 4, falseSharingKernel());
}

TEST(PdesEquivalence, HlrcSkewedCompute)
{
    expectEquivalent(ProtocolKind::Hlrc, 4, skewedComputeKernel());
}

TEST(PdesEquivalence, ScBitIdenticalAcrossPartitions)
{
    expectEquivalent(ProtocolKind::Sc, 4, lockCounterKernel());
    expectEquivalent(ProtocolKind::Sc, 4, falseSharingKernel());
    expectEquivalent(ProtocolKind::Sc, 4, skewedComputeKernel());
}

TEST(PdesEquivalence, IdealFallsBackToSerialUnchanged)
{
    // Ideal is not partition-safe (zero-latency accesses bypass the
    // network); requesting threads must silently degrade to the serial
    // kernel and still produce identical results.
    expectEquivalent(ProtocolKind::Ideal, 4, lockCounterKernel());
    expectEquivalent(ProtocolKind::Ideal, 4, falseSharingKernel());
    expectEquivalent(ProtocolKind::Ideal, 4, skewedComputeKernel());
}

TEST(PdesEquivalence, UnevenNodeCountsSplitCleanly)
{
    // 6 nodes over 4 partitions: partition sizes 1 and 2 mixed.
    expectEquivalent(ProtocolKind::Hlrc, 6, lockCounterKernel());
    expectEquivalent(ProtocolKind::Sc, 6, falseSharingKernel());
}

TEST(PdesEquivalence, PdesMetricsAreReported)
{
    MachineParams mp;
    mp.numProcs = 4;
    mp.protocol = ProtocolKind::Hlrc;
    mp.simThreads = 2;
    Cluster c(mp);
    auto body = lockCounterKernel()(c);
    c.run(body);
    std::uint64_t partitions = 0, windows = 0;
    for (const auto &[name, value] : c.stats().metrics.counters) {
        if (name == "sim.pdes_partitions")
            partitions = value;
        else if (name == "sim.pdes_windows")
            windows = value;
    }
    EXPECT_EQ(partitions, 2u);
    EXPECT_GT(windows, 0u);
}

TEST(PdesEquivalence, SingleProcRunsStaySerial)
{
    // numProcs < 2 cannot be partitioned; the request is ignored.
    MachineParams mp;
    mp.numProcs = 1;
    mp.protocol = ProtocolKind::Hlrc;
    mp.simThreads = 4;
    Cluster c(mp);
    auto body = lockCounterKernel()(c);
    c.run(body);
    for (const auto &[name, value] : c.stats().metrics.counters) {
        if (name == "sim.pdes_partitions") {
            EXPECT_EQ(value, 0u); // serial runs report no partitions
        }
    }
}

/**
 * The scenario that separates the sound window bound from the unsound
 * min-over-peers widening: partition 0 holds cheap local work
 * stretching to t=990 while partition 1 sits idle until t=1000. A
 * message chain A@0 (slot 0) -> M1@10 (slot 1) -> reply@20 (slot 0)
 * threads through the quiet period. With lookahead 10 the sound bound
 * holds partition 0 below its own head + 2L until the reply lands; the
 * unsound widening would let partition 0 race to t=990 first, so the
 * reply would arrive below its clock.
 */
void
seedWideningScenario(EventQueue &eq)
{
    eq.setNumSlots(2);
    eq.scheduleTo(0, 0, [&eq] {
        eq.scheduleTo(1, eq.now() + 10, [&eq] {
            eq.scheduleTo(0, eq.now() + 10, [] {});
        });
    });
    eq.scheduleTo(0, 35, [] {});
    eq.scheduleTo(0, 50, [] {});
    eq.scheduleTo(0, 990, [] {});
    eq.scheduleTo(1, 1000, [] {});
}

TEST(PdesUnsoundWiden, SoundDefaultMatchesSerial)
{
    std::uint64_t serial_events = 0;
    {
        EventQueue eq;
        seedWideningScenario(eq);
        serial_events = eq.run();
    }
    EXPECT_EQ(serial_events, 7u);

    EventQueue eq;
    seedWideningScenario(eq);
    PdesEngine engine(eq, {0, 1}, 2, /*lookahead=*/10);
    EXPECT_EQ(engine.run(), serial_events);
}

TEST(PdesUnsoundWiden, PerDestBoundStaysSoundOnTheOldCounterexample)
{
    // The per-partition bound min(head[p] + L, min other head) + L
    // respects the reply chain through the idle partition (no causality
    // violation, same event count), and the rounds are exactly the
    // bound's: once the reply is pending at 20, partition 0 runs to
    // min(20 + L, 1000) + L = 40, taking the local event at 35 in the
    // same window. The narrower global-minimum bound (min head + L)
    // stops at 30 and needs 7 rounds instead of 6.
    std::uint64_t serial_events = 0;
    {
        EventQueue eq;
        seedWideningScenario(eq);
        serial_events = eq.run();
    }

    EventQueue eq;
    seedWideningScenario(eq);
    PdesEngine engine(eq, {0, 1}, 2, /*lookahead=*/10);
    EXPECT_EQ(engine.run(), serial_events);
    EXPECT_EQ(engine.stats().windows, 6u);
}

} // namespace
} // namespace swsm
