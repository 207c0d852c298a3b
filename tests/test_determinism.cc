/**
 * @file
 * Determinism guarantees of the simulator and the sweep runner:
 * repeated serial runs of the same experiment are bitwise identical,
 * and a parallel sweep produces exactly the same results as the serial
 * sweep over the same grid.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "harness/sweep.hh"

namespace swsm
{
namespace
{

SweepOptions
quickOptions(int jobs)
{
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 8;
    opts.apps = {"fft", "lu"};
    opts.jobs = jobs;
    return opts;
}

/** Counter @p name of @p r's metrics. */
std::uint64_t
count(const ExperimentResult &r, const char *name)
{
    return r.stats.metrics.counter(name);
}

/** One AO experiment of @p app on a fresh runner. */
ExperimentResult
runOnce(const AppInfo &app, ProtocolKind kind)
{
    SweepRunner runner(quickOptions(1));
    runner.plan(app, kind, 'A', 'O');
    runner.runPlanned();
    return runner.run(app, kind, 'A', 'O');
}

TEST(Determinism, RepeatedSerialRunsIdentical)
{
    const AppInfo &app = findApp("fft");
    const ExperimentResult a = runOnce(app, ProtocolKind::Hlrc);
    const ExperimentResult b = runOnce(app, ProtocolKind::Hlrc);

    EXPECT_EQ(a.sequentialCycles, b.sequentialCycles);
    EXPECT_EQ(a.parallelCycles, b.parallelCycles);
    for (const char *name : {"net.messages", "net.bytes", "proto.read_faults",
                             "proto.write_faults", "proto.diffs_created"})
        EXPECT_EQ(count(a, name), count(b, name)) << name;
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
}

TEST(Determinism, RepeatedScRunsIdentical)
{
    const AppInfo &app = findApp("lu");
    const ExperimentResult a = runOnce(app, ProtocolKind::Sc);
    const ExperimentResult b = runOnce(app, ProtocolKind::Sc);

    EXPECT_EQ(a.parallelCycles, b.parallelCycles);
    EXPECT_EQ(count(a, "net.messages"), count(b, "net.messages"));
}

/**
 * Run the same small grid serially and on 4 workers and require every
 * cached result (and baseline) to match exactly. This is the parallel
 * sweep engine's core guarantee: job count never changes results.
 */
TEST(Determinism, ParallelSweepMatchesSerial)
{
    auto sweep = [](int jobs) {
        SweepRunner runner(quickOptions(jobs));
        for (const AppInfo &app : runner.options().selectedApps()) {
            runner.planIdeal(app);
            for (const auto &[comm, proto] : figure3Configs(false)) {
                runner.plan(app, ProtocolKind::Hlrc, comm, proto);
                runner.plan(app, ProtocolKind::Sc, comm, proto);
            }
        }
        runner.runPlanned();
        std::map<std::string, ExperimentResult> results;
        runner.forEachResult(
            [&](const std::string &key, const ExperimentResult &r) {
                results[key] = r;
            });
        std::map<std::string, Cycles> baselines;
        runner.forEachBaseline(
            [&](const std::string &app, Cycles seq) {
                baselines[app] = seq;
            });
        return std::make_pair(results, baselines);
    };

    const auto [serial, serial_base] = sweep(1);
    const auto [parallel, parallel_base] = sweep(4);

    EXPECT_EQ(serial_base, parallel_base);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_GT(serial.size(), 4u);
    for (const auto &[key, r] : serial) {
        ASSERT_TRUE(parallel.count(key)) << key;
        const ExperimentResult &p = parallel.at(key);
        EXPECT_EQ(r.sequentialCycles, p.sequentialCycles) << key;
        EXPECT_EQ(r.parallelCycles, p.parallelCycles) << key;
        for (const char *name :
             {"net.messages", "net.bytes", "proto.diffs_created"})
            EXPECT_EQ(count(r, name), count(p, name)) << key << " " << name;
        EXPECT_EQ(r.verified, p.verified) << key;
    }
}

TEST(Determinism, ParallelCustomExperimentsMatchSerial)
{
    auto sweep = [](int jobs) {
        SweepRunner runner(quickOptions(jobs));
        const AppInfo &app = findApp("fft");
        for (const int procs : {4, 8}) {
            ExperimentConfig cfg;
            cfg.numProcs = procs;
            runner.plan(app, "fft/" + std::to_string(procs) + "p",
                        cfg.machineParams(), cfg.name());
        }
        runner.runPlanned();
        std::map<std::string, std::pair<Cycles, Cycles>> cycles;
        runner.forEachResult(
            [&](const std::string &key, const ExperimentResult &r) {
                cycles[key] = {r.parallelCycles, r.sequentialCycles};
            });
        return cycles;
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(3);
    EXPECT_EQ(serial.size(), 2u);
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace swsm
