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
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "net/comm_params.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/pdes.hh"

namespace swsm
{
namespace
{

/** Everything a run produces that partitioning must not change. */
struct RunResult
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** The engine's own bookkeeping, kept separately for shape tests. */
    std::map<std::string, std::uint64_t> pdes;
};

/** A kernel sets up shared state on the cluster, then returns the
 *  SPMD body. */
using Kernel =
    std::function<std::function<void(Thread &)>(Cluster &)>;

RunResult
runMachine(const MachineParams &mp, const Kernel &kernel)
{
    Cluster c(mp);
    auto body = kernel(c);
    c.run(body);

    RunResult r;
    r.total = c.stats().totalCycles;
    r.finish = c.stats().finishTimes;
    for (const auto &[name, value] : c.stats().metrics.counters) {
        // The engine's own bookkeeping and the pending-event high-water
        // mark are kept out of the equivalence comparison (mirroring
        // bench_diff.py): per-partition heaps see fewer events at once.
        if (name.rfind("sim.pdes_", 0) == 0) {
            r.pdes.emplace(name, value);
            continue;
        }
        if (name == "sim.max_pending_events")
            continue;
        r.counters.emplace_back(name, value);
    }
    return r;
}

RunResult
runKernel(ProtocolKind kind, int sim_threads, int num_procs,
          const Kernel &kernel)
{
    MachineParams mp;
    mp.numProcs = num_procs;
    mp.protocol = kind;
    mp.simThreads = sim_threads;
    return runMachine(mp, kernel);
}

void
expectSameResult(const RunResult &serial, const RunResult &par,
                 const std::string &label)
{
    EXPECT_EQ(par.total, serial.total) << label;
    EXPECT_EQ(par.finish, serial.finish) << label;
    ASSERT_EQ(par.counters.size(), serial.counters.size()) << label;
    for (std::size_t i = 0; i < par.counters.size(); ++i) {
        EXPECT_EQ(par.counters[i], serial.counters[i])
            << "counter " << serial.counters[i].first << " " << label;
    }
}

void
expectEquivalent(ProtocolKind kind, int num_procs, const Kernel &kernel)
{
    const RunResult serial = runKernel(kind, 1, num_procs, kernel);
    for (const int threads : {2, 4}) {
        const RunResult par =
            runKernel(kind, threads, num_procs, kernel);
        expectSameResult(serial, par,
                         "with " + std::to_string(threads) +
                             " partitions");
    }
}

/** Lock-serialized read-modify-writes plus private slots: every
 *  acquire/release crosses partitions through the lock home. */
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

/** Barrier epochs of falsely-shared writes: many same-cycle cross-node
 *  messages, the tie-break stamps' worst case. */
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
 * Seed the scenario that used to separate the sound window bound from
 * the min-over-others widening: partition 0 holds cheap local work
 * stretching to t=990 while partition 1 sits idle until t=1000. A
 * message chain A@0 (slot 0) -> M1@10 (slot 1) -> reply@20 (slot 0)
 * threads through the quiet period. With lookahead 10 the sound bound
 * holds partition 0 at its own horizon until the reply lands; the
 * retired unsound widening would have let partition 0 race to t=990
 * first, so the reply arrived below its clock.
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
    EXPECT_EQ(serial_events, 6u);

    EventQueue eq;
    seedWideningScenario(eq);
    PdesEngine engine(eq, {0, 1}, 2, /*lookahead=*/10);
    EXPECT_EQ(engine.run(), serial_events);
}

TEST(PdesUnsoundWiden, PerDestBoundStaysSoundOnTheOldCounterexample)
{
    // The fixpoint bound subsumes what the retired min-over-others
    // widening tried to buy, but soundly: the reply chain through the
    // idle partition is respected (no causality violation, same event
    // count), while at least one window is still wider than the global
    // minimum (partition 0's own head never bounds it).
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
    EXPECT_GT(engine.stats().widenedWindows, 0u);
}

// ---------------------------------------------------------------------
// Golden asymmetric-topology windows (kernel level).
// ---------------------------------------------------------------------

/** Per-slot state the synthetic kernels mutate. Each event touches only
 *  its own execution slot, so the per-slot mutation order (and hence
 *  the hash chain) must be bit-identical to the serial kernel's. */
struct SlotCells
{
    explicit SlotCells(std::size_t slots) : cells(slots), order(slots) {}

    void
    touch(std::uint32_t slot, Cycles when)
    {
        cells[slot] = cells[slot] * 6364136223846793005ULL +
                      (static_cast<std::uint64_t>(when) ^ slot) + 1;
        order[slot].push_back(when);
    }

    bool
    operator==(const SlotCells &other) const
    {
        return cells == other.cells && order == other.order;
    }

    std::vector<std::uint64_t> cells;
    std::vector<std::vector<Cycles>> order;
};

/**
 * Fast/slow-link geometry, 2 partitions: slot0 -> slot1 costs 10,
 * slot1 -> slot0 costs 1000. Slot 0 is busy early (events up to 900),
 * slot 1 is quiet until 500 and replies at +1000. The per-destination
 * fixpoint provably widens partition 0's first window to
 * E[1] + L[1][0] = min(500, 0 + 10) + 1000 = 1010, while the global
 * minimum bound is min(0, 500) + min(10, 1000) = 10 — so the whole
 * busy stretch executes in one round instead of ~100.
 */
void
seedAsymmetricScenario(EventQueue &eq, SlotCells &state)
{
    eq.setNumSlots(2);
    eq.scheduleTo(0, 0, [&eq, &state] {
        state.touch(0, 0);
        eq.scheduleTo(1, 10, [&state] { state.touch(1, 10); });
    });
    for (Cycles t = 100; t <= 900; t += 100)
        eq.scheduleTo(0, t, [&state, t] { state.touch(0, t); });
    eq.scheduleTo(1, 500, [&eq, &state] {
        state.touch(1, 500);
        eq.scheduleTo(0, 1500, [&state] { state.touch(0, 1500); });
    });
}

/** Slot-to-slot costs of seedAsymmetricScenario (one slot each). */
std::vector<Cycles>
asymmetricLookahead()
{
    return {0, 10, 1000, 0}; // diagonal is ignored
}

TEST(PdesPerDest, AsymmetricMatrixWidensWindowsAndMatchesSerial)
{
    SlotCells serial_state(2);
    std::uint64_t serial_events = 0;
    {
        EventQueue eq;
        seedAsymmetricScenario(eq, serial_state);
        serial_events = eq.run();
    }
    EXPECT_EQ(serial_events, 13u);

    SlotCells state(2);
    EventQueue eq;
    seedAsymmetricScenario(eq, state);
    PdesEngine engine(eq, {0, 1}, 2, asymmetricLookahead());
    EXPECT_EQ(engine.run(), serial_events);
    EXPECT_TRUE(state == serial_state);
    // The busy partition's window provably exceeds the global-minimum
    // bound.
    EXPECT_GT(engine.stats().widenedWindows, 0u);
    // The asymmetric matrix pays off in round count: the whole run
    // completes in a handful of windows, not one per 10-cycle step.
    EXPECT_LT(engine.stats().windows, 10u);
}

// ---------------------------------------------------------------------
// Golden asymmetric topology (machine level): island geometries.
// ---------------------------------------------------------------------

TEST(PdesIslands, IslandTopologyIsBitIdenticalAndWidensWindows)
{
    // Two islands of four nodes with a 5000-cycle trench between them,
    // four partitions of two nodes: partition pairs inside an island
    // keep the short lookahead while cross-island pairs get the long
    // one — the asymmetry the per-destination matrix exploits.
    MachineParams mp;
    mp.numProcs = 8;
    mp.protocol = ProtocolKind::Hlrc;
    mp.comm = CommParams::achievable().withIslands(4, 5000, 0.5);

    mp.simThreads = 1;
    const RunResult serial = runMachine(mp, skewedComputeKernel());
    mp.simThreads = 4;
    const RunResult par = runMachine(mp, skewedComputeKernel());
    expectSameResult(serial, par, "island topology, 4 partitions");
    ASSERT_TRUE(par.pdes.count("sim.pdes_window_widened"));
    EXPECT_GT(par.pdes.at("sim.pdes_window_widened"), 0u);
}

TEST(PdesIslands, ScProtocolOnIslandsStaysBitIdentical)
{
    MachineParams mp;
    mp.numProcs = 8;
    mp.protocol = ProtocolKind::Sc;
    mp.comm = CommParams::achievable().withIslands(2, 3000, 0.25);

    mp.simThreads = 1;
    const RunResult serial = runMachine(mp, falseSharingKernel());
    mp.simThreads = 4;
    const RunResult par = runMachine(mp, falseSharingKernel());
    expectSameResult(serial, par, "SC island topology");
}

} // namespace
} // namespace swsm
