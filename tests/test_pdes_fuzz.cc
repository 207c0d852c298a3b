/**
 * @file
 * Parallel-schedule fuzz tier (ctest label: fuzz-pdes).
 *
 * Two seeded sweeps, both asserting the parallel event kernel's core
 * contract — bit-equivalence with the serial kernel — across the axes
 * the windows depend on: the lookahead, the timing and the partition
 * boundaries.
 *
 *  - Kernel tier: random event graphs under one random lookahead per
 *    seed, run serially and under {2, 4} partitions. Per-slot mutation
 *    order and hash chains must match the serial run exactly.
 *  - Cluster tier: full machine runs (real protocol, network, fibers)
 *    whose shape comes from check::pdesMachineForSeed — randomized
 *    timing and cluster size — swept over sim-thread counts {2, 4}.
 *    Every counter except the engine's own bookkeeping must be
 *    identical to serial.
 *
 * Every failure message carries the seed and axis values, so a red run
 * is replayable with
 *
 *   SWSM_PDES_FUZZ_SEEDS=1 SWSM_PDES_FUZZ_BASE=<seed> test_pdes_fuzz
 *
 * Seed counts default to 20 (kernel) / 6 (cluster) per protocol and
 * scale with SWSM_PDES_FUZZ_SEEDS for soak runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzz.hh"
#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"
#include "sim/rng.hh"

namespace swsm
{
namespace
{

std::uint64_t
envCount(const char *name, std::uint64_t def)
{
    const char *env = std::getenv(name);
    if (env) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0 && v <= 1000000)
            return static_cast<std::uint64_t>(v);
    }
    return def;
}

std::uint64_t
baseSeed()
{
    return envCount("SWSM_PDES_FUZZ_BASE", 1);
}

// ---------------------------------------------------------------------
// Kernel tier: random event graphs under a random lookahead.
// ---------------------------------------------------------------------

/** Per-slot state the fuzz events mutate; order-sensitive per slot. */
struct GraphState
{
    explicit GraphState(std::size_t slots) : cells(slots), order(slots) {}

    void
    touch(std::uint32_t slot, Cycles when)
    {
        cells[slot] = cells[slot] * 6364136223846793005ULL +
                      (static_cast<std::uint64_t>(when) ^ slot) + 1;
        order[slot].push_back(when);
    }

    bool
    operator==(const GraphState &other) const
    {
        return cells == other.cells && order == other.order;
    }

    std::vector<std::uint64_t> cells;
    std::vector<std::vector<Cycles>> order;
};

/** One seeded event graph: shared by the serial and parallel runs. */
struct Graph
{
    std::uint32_t numSlots = 0;
    /** Minimum gap of every cross-slot schedule. */
    Cycles lookahead = 0;
};

Graph
graphForSeed(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
    Graph g;
    static constexpr std::uint32_t slot_counts[] = {4, 5, 8};
    g.numSlots = slot_counts[rng.nextBounded(3)];
    g.lookahead = 20 + rng.nextBounded(2000);
    return g;
}

/** Everything one graph run touches; events hold a pointer to this. */
struct GraphRun
{
    EventQueue eq;
    Graph graph;
    GraphState state;

    explicit GraphRun(const Graph &g) : graph(g), state(g.numSlots) {}
};

/**
 * Execute one fuzz event: mutate the slot's cell, then schedule 0-2
 * children derived deterministically from the event's own stream, so
 * serial and parallel runs build the same graph. Cross-slot children
 * land at least one lookahead ahead, so every cross-partition one
 * does.
 */
void
runEvent(GraphRun *run, std::uint32_t slot, Cycles when, int depth,
         std::uint64_t stream)
{
    run->state.touch(slot, when);
    if (depth >= 5)
        return;
    Rng rng(stream);
    const std::uint64_t children = rng.nextBounded(3);
    for (std::uint64_t c = 0; c < children; ++c) {
        const auto dst =
            static_cast<std::uint32_t>(rng.nextBounded(run->graph.numSlots));
        const Cycles gap = dst == slot ? 1 : run->graph.lookahead;
        const Cycles child_when = when + gap + rng.nextBounded(300);
        const std::uint64_t child_stream =
            stream * 0x9e3779b97f4a7c15ULL + c + 1;
        const int child_depth = depth + 1;
        run->eq.scheduleTo(dst, child_when,
                           [run, dst, child_when, child_depth,
                            child_stream] {
                               runEvent(run, dst, child_when,
                                        child_depth, child_stream);
                           });
    }
}

void
seedGraph(GraphRun &run, std::uint64_t seed)
{
    run.eq.setNumSlots(run.graph.numSlots);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x94d049bb133111ebULL);
    for (std::uint32_t slot = 0; slot < run.graph.numSlots; ++slot) {
        const std::uint64_t roots = 1 + rng.nextBounded(2);
        for (std::uint64_t r = 0; r < roots; ++r) {
            const Cycles when = rng.nextBounded(500);
            const std::uint64_t stream =
                (seed << 8) ^ (slot * 131u) ^ r;
            GraphRun *rp = &run;
            run.eq.scheduleTo(slot, when, [rp, slot, when, stream] {
                runEvent(rp, slot, when, 0, stream);
            });
        }
    }
}

TEST(PdesFuzz, KernelGraphsAreBitEquivalentAcrossPartitions)
{
    const std::uint64_t seeds = envCount("SWSM_PDES_FUZZ_SEEDS", 20);
    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = baseSeed() + i;
        const Graph graph = graphForSeed(seed);

        GraphRun serial(graph);
        seedGraph(serial, seed);
        const std::uint64_t serial_events = serial.eq.run();

        for (const int partitions : {2, 4}) {
            std::vector<int> partition_of(graph.numSlots);
            for (std::uint32_t s = 0; s < graph.numSlots; ++s) {
                partition_of[s] = static_cast<int>(
                    static_cast<std::uint64_t>(s) * partitions /
                    graph.numSlots);
            }
            GraphRun par(graph);
            seedGraph(par, seed);
            PdesEngine engine(par.eq, partition_of, partitions,
                              graph.lookahead);
            const std::uint64_t events = engine.run();
            engine.checkDrained();
            const std::string label =
                "seed=" + std::to_string(seed) +
                " lookahead=" + std::to_string(graph.lookahead) +
                " partitions=" + std::to_string(partitions) +
                " (replay: SWSM_PDES_FUZZ_SEEDS=1 "
                "SWSM_PDES_FUZZ_BASE=" +
                std::to_string(seed) + " test_pdes_fuzz)";
            EXPECT_EQ(events, serial_events) << label;
            EXPECT_TRUE(par.state == serial.state) << label;
        }
    }
}

// ---------------------------------------------------------------------
// Cluster tier: full machine runs over fuzzed timing and sizes.
// ---------------------------------------------------------------------

/** Lock-serialized counters plus falsely-shared writes: cross-node
 *  traffic in both the lock-home and page-home patterns. */
std::function<void(Thread &)>
clusterKernel(Cluster &c)
{
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    auto a = std::make_shared<SharedArray<std::uint64_t>>(
        SharedArray<std::uint64_t>::homedAt(c, 96, 0));
    for (int i = 0; i < 96; ++i)
        a->init(c, i, 0);
    return [lock, bar, a](Thread &t) {
        for (int round = 0; round < 2; ++round) {
            t.acquire(lock);
            a->put(t, 0, a->get(t, 0) + 1);
            t.release(lock);
            for (int j = 0; j < 4; ++j)
                a->put(t, 8 + t.id() * 4 + j,
                       static_cast<std::uint64_t>(round * 100 +
                                                  t.id() * 4 + j));
            t.barrier(bar);
            std::uint64_t sum = 0;
            for (int i = 0; i < 8 + 4 * t.nprocs(); ++i)
                sum += a->get(t, i);
            (void)sum;
            t.barrier(bar);
        }
    };
}

struct ClusterResult
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

ClusterResult
runCluster(MachineParams mp)
{
    Cluster c(mp);
    auto body = clusterKernel(c);
    c.run(body);
    ClusterResult r;
    r.total = c.stats().totalCycles;
    r.finish = c.stats().finishTimes;
    for (const auto &[name, value] : c.stats().metrics.counters) {
        if (name.rfind("sim.pdes_", 0) == 0 ||
            name == "sim.max_pending_events")
            continue;
        r.counters.emplace_back(name, value);
    }
    return r;
}

void
fuzzCluster(ProtocolKind protocol)
{
    const std::uint64_t seeds = envCount("SWSM_PDES_FUZZ_SEEDS", 6);
    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = baseSeed() + i;
        MachineParams mp = check::pdesMachineForSeed(protocol, seed);

        mp.simThreads = 1;
        const ClusterResult serial = runCluster(mp);

        for (const int threads : {2, 4}) {
            mp.simThreads = threads;
            const ClusterResult par = runCluster(mp);
            const std::string label =
                std::string(protocolKindName(protocol)) +
                " seed=" + std::to_string(seed) +
                " threads=" + std::to_string(threads) +
                " (replay: SWSM_PDES_FUZZ_SEEDS=1 "
                "SWSM_PDES_FUZZ_BASE=" +
                std::to_string(seed) + " test_pdes_fuzz)";
            EXPECT_EQ(par.total, serial.total) << label;
            EXPECT_EQ(par.finish, serial.finish) << label;
            ASSERT_EQ(par.counters.size(), serial.counters.size())
                << label;
            for (std::size_t k = 0; k < par.counters.size(); ++k) {
                EXPECT_EQ(par.counters[k], serial.counters[k])
                    << "counter " << serial.counters[k].first << " "
                    << label;
            }
        }
        if (::testing::Test::HasFailure())
            break; // one seed's axes are enough to diagnose
    }
}

TEST(PdesFuzz, ClusterTopologiesScBitEquivalent)
{
    fuzzCluster(ProtocolKind::Sc);
}

TEST(PdesFuzz, ClusterTopologiesHlrcBitEquivalent)
{
    fuzzCluster(ProtocolKind::Hlrc);
}

} // namespace
} // namespace swsm
