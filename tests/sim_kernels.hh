/**
 * @file
 * Shared fixtures of the whole-run equivalence suites (test_fastpath,
 * test_pdes): what a run produces, two SPMD kernels, and a runner that
 * collects a run's result minus the counters a suite may ignore. Each
 * suite passes its own ignore list, so sharing the runner loosens no
 * comparison.
 */

#ifndef SWSM_TESTS_SIM_KERNELS_HH
#define SWSM_TESTS_SIM_KERNELS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "sim/log.hh"

namespace swsm
{

/** Everything a run produces that a host mode must not change. */
struct RunResult
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** A kernel sets up shared state on the cluster, then returns the
 *  SPMD body. */
using Kernel =
    std::function<std::function<void(Thread &)>(Cluster &)>;

/**
 * Run @p kernel on a cluster built from @p mp. The result keeps every
 * counter except those whose name starts with one of @p ignored.
 */
inline RunResult
runKernel(const MachineParams &mp, const Kernel &kernel,
          std::initializer_list<std::string_view> ignored)
{
    Cluster c(mp);
    auto body = kernel(c);
    c.run(body);

    RunResult r;
    r.total = c.stats().totalCycles;
    r.finish = c.stats().finishTimes;
    for (const auto &[name, value] : c.stats().metrics.counters) {
        bool skip = false;
        for (const std::string_view prefix : ignored)
            skip = skip || name.starts_with(prefix);
        if (!skip)
            r.counters.emplace_back(name, value);
    }
    return r;
}

/** Expect @p got to equal @p want in cycles, finish times and
 *  counters; @p label names the arm in failure messages. */
inline void
expectSameRun(const RunResult &want, const RunResult &got,
              const std::string &label)
{
    EXPECT_EQ(got.total, want.total) << label;
    EXPECT_EQ(got.finish, want.finish) << label;
    ASSERT_EQ(got.counters.size(), want.counters.size()) << label;
    for (std::size_t i = 0; i < got.counters.size(); ++i) {
        EXPECT_EQ(got.counters[i], want.counters[i])
            << "counter " << want.counters[i].first << " " << label;
    }
}

/** Lock-serialized read-modify-writes plus private slots: exercises
 *  single-reference hits, twins, diffs and notice invalidations, and
 *  every acquire/release crosses partitions through the lock home. */
inline Kernel
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
inline Kernel
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

} // namespace swsm

#endif // SWSM_TESTS_SIM_KERNELS_HH
