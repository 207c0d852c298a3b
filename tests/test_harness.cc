/**
 * @file
 * Harness-level tests: configuration expansion, parameter-set
 * invariants, option parsing, the
 * parallelFor executor, the sweep runner's plan/run/lookup contract,
 * and the coarse performance-monotonicity
 * properties the whole study rests on (better layer costs never make a
 * deterministic run slower, worse costs never make it faster).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

TEST(ExperimentConfig, NamesFollowThePaper)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.name(), "AO");
    cfg.commSet = 'B';
    cfg.protoSet = 'B';
    EXPECT_EQ(cfg.name(), "BB");
    cfg.protocol = ProtocolKind::Ideal;
    EXPECT_EQ(cfg.name(), "Ideal");
}

TEST(ExperimentConfig, MachineParamsExpandCorrectly)
{
    ExperimentConfig cfg;
    cfg.commSet = 'W';
    cfg.protoSet = 'H';
    cfg.numProcs = 4;
    cfg.blockBytes = 1024;
    const MachineParams mp = cfg.machineParams();
    EXPECT_EQ(mp.numProcs, 4);
    EXPECT_EQ(mp.blockBytes, 1024u);
    EXPECT_EQ(mp.comm.hostOverhead, CommParams::worse().hostOverhead);
    EXPECT_EQ(mp.proto.handlerBase, ProtoParams::halfway().handlerBase);
}

TEST(ExperimentConfig, UnknownSetLettersAreFatal)
{
    ExperimentConfig cfg;
    cfg.commSet = 'Q';
    EXPECT_THROW(cfg.machineParams(), FatalError);
    cfg.commSet = 'A';
    cfg.protoSet = 'Z';
    EXPECT_THROW(cfg.machineParams(), FatalError);
}

TEST(ExperimentConfig, SimThreadsOtherThanOneIsFatal)
{
    // Every run is serial; the field survives only until the benchmark
    // stops assigning it, and no other value may reach a machine.
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.simThreads, 1);
    EXPECT_NO_THROW(cfg.machineParams());
    for (const int threads : {0, 2, 4, -1}) {
        cfg.simThreads = threads;
        EXPECT_THROW(cfg.machineParams(), FatalError) << threads;
    }
}

TEST(ProtoParamSets, OrderedBySeverity)
{
    const ProtoParams o = ProtoParams::original();
    const ProtoParams h = ProtoParams::halfway();
    const ProtoParams b = ProtoParams::best();
    EXPECT_GT(o.diffComparePerWord, h.diffComparePerWord);
    EXPECT_GT(h.diffComparePerWord, b.diffComparePerWord);
    EXPECT_EQ(b.diffComparePerWord, 0u);
    EXPECT_EQ(b.handlerBase, 0u);
    // The SC handler cost is deliberately NOT varied across sets.
    EXPECT_EQ(o.scHandlerBase, h.scHandlerBase);
    EXPECT_EQ(o.scHandlerBase, b.scHandlerBase);
}

TEST(Figure3Configs, BaseListAndFullList)
{
    const auto base = figure3Configs(false);
    EXPECT_EQ(base.size(), 6u);
    // The base system must be present.
    bool has_ao = false;
    for (const auto &[c, p] : base)
        has_ao |= c == 'A' && p == 'O';
    EXPECT_TRUE(has_ao);
    const auto full = figure3Configs(true);
    EXPECT_GT(full.size(), base.size());
}

TEST(SweepOptions, ParseRecognizesFlags)
{
    SweepOptions opts;
    char prog[] = "prog";
    char quick[] = "--quick";
    char procs[] = "--procs=4";
    char apps[] = "--apps=fft,lu";
    char full[] = "--full";
    char *argv[] = {prog, quick, procs, apps, full};
    EXPECT_TRUE(opts.parse(5, argv));
    EXPECT_EQ(opts.size, SizeClass::Tiny);
    EXPECT_EQ(opts.numProcs, 4);
    EXPECT_TRUE(opts.full);
    ASSERT_EQ(opts.apps.size(), 2u);
    EXPECT_EQ(opts.apps[0], "fft");
    EXPECT_EQ(opts.apps[1], "lu");
    EXPECT_EQ(opts.selectedApps().size(), 2u);
}

TEST(SweepOptions, ParseRejectsUnknown)
{
    for (const char *bad : {"--bogus", "--apps=fftt", "--apps=fft,",
                            "--apps=,fft", "--apps=", "--apps=fft,,lu"}) {
        SweepOptions opts;
        char prog[] = "prog";
        std::string arg = bad;
        char *argv[] = {prog, arg.data()};
        EXPECT_FALSE(opts.parse(2, argv)) << bad;
    }
}

// parallelFor runs a task list on a pool of up to `jobs` threads; the
// suite keeps the name of the TaskPool class it replaced so that each
// test still checks the property it checked there.

TEST(TaskPool, SerialModeRunsInSubmissionOrder)
{
    std::vector<std::size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    parallelFor(1, 16, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(TaskPool, EmptyPoolRuns)
{
    int runs = 0;
    parallelFor(4, 0, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
}

TEST(TaskPool, AllTasksExecuteExactlyOnce)
{
    constexpr std::size_t n = 200;
    std::vector<std::atomic<int>> runs(n);
    std::set<std::thread::id> threads;
    std::mutex mu;
    parallelFor(4, n, [&](std::size_t i) {
        ++runs[i];
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_LE(threads.size(), 4u);
}

TEST(TaskPool, ManyWorkersFewTasks)
{
    std::atomic<int> runs{0};
    parallelFor(16, 1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs.load(), 1);
}

TEST(TaskPool, FirstExceptionRethrownAfterDrain)
{
    // Every index runs; the lowest failing index's exception wins.
    std::atomic<int> ran{0};
    try {
        parallelFor(2, 6, [&](std::size_t i) {
            ++ran;
            if (i == 1)
                throw std::logic_error("index 1");
            if (i == 4)
                throw std::runtime_error("index 4");
        });
        ADD_FAILURE() << "nothing rethrown";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "index 1");
    }
    EXPECT_EQ(ran.load(), 6);
}

TEST(TaskPool, SerialModeExceptionPropagates)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(1, 3,
                             [&](std::size_t i) {
                                 if (i == 0)
                                     throw std::logic_error("first");
                                 ++ran;
                             }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 2);
}

TEST(TaskPool, LaterIndicesMayWaitForEarlierOnes)
{
    // A task may wait for the work of an earlier index (here, each
    // waits for one of the first three): claiming indices in order
    // keeps that live on any thread count.
    constexpr std::size_t heads = 3;
    constexpr std::size_t n = 60;
    for (const int jobs : {1, 2, 4}) {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<bool> done(heads, false);
        std::size_t waited = 0;
        parallelFor(jobs, n, [&](std::size_t i) {
            std::unique_lock<std::mutex> lock(mu);
            if (i < heads) {
                done[i] = true;
                cv.notify_all();
                return;
            }
            cv.wait(lock, [&] { return done[i % heads]; });
            ++waited;
        });
        EXPECT_EQ(waited, n - heads) << "jobs " << jobs;
    }
}

/** Tiny inputs on 4 processors, two jobs. */
SweepOptions
tinyOptions()
{
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 4;
    opts.jobs = 2;
    return opts;
}

TEST(SweepRunner, CachesResultsAndBaselines)
{
    SweepRunner runner(tinyOptions());
    const AppInfo &app = findApp("lu");
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.runPlanned();
    int results = 0;
    runner.forEachResult(
        [&](const std::string &, const ExperimentResult &) { ++results; });
    EXPECT_EQ(results, 1); // planned once

    const ExperimentResult &r =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'O');
    EXPECT_GT(runner.baseline(app), 0u);
    EXPECT_EQ(r.sequentialCycles, runner.baseline(app));

    // A key already run is not run again.
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.runPlanned();
    EXPECT_EQ(&runner.run(app, ProtocolKind::Hlrc, 'A', 'O'), &r);

    // Lookups never compute: an unplanned key or app is an error.
    EXPECT_THROW(runner.run(app, ProtocolKind::Hlrc, 'B', 'O'),
                 FatalError);
    EXPECT_THROW(runner.runIdeal(app), FatalError);
    EXPECT_THROW(runner.result("lu/custom"), FatalError);
    EXPECT_THROW(runner.baseline(findApp("fft")), FatalError);
}

TEST(SweepRunner, ScCollapsesProtoVariants)
{
    SweepRunner runner(tinyOptions());
    const AppInfo &app = findApp("lu");
    runner.plan(app, ProtocolKind::Sc, 'A', 'O');
    runner.plan(app, ProtocolKind::Sc, 'A', 'B');
    runner.runPlanned();
    const ExperimentResult &ao =
        runner.run(app, ProtocolKind::Sc, 'A', 'O');
    const ExperimentResult &ab =
        runner.run(app, ProtocolKind::Sc, 'A', 'B');
    EXPECT_EQ(&ao, &ab);
    EXPECT_EQ(ao.config, "AO");
}

TEST(SweepRunner, CustomPointsTakeTraceFromTheOptions)
{
    const AppInfo &app = findApp("fft");
    ExperimentConfig cfg;
    cfg.numProcs = 4;
    SweepOptions traced = tinyOptions();
    traced.tracePath = "unused"; // turns tracing on in the runner
    SweepRunner runner(traced);
    runner.plan(app, "fft/custom", cfg.machineParams(), "custom");
    runner.runPlanned();
    const ExperimentResult &t = runner.result("fft/custom");
    ASSERT_NE(t.trace, nullptr);
    EXPECT_FALSE(t.trace->events.empty());
}

struct MonotonicityCase
{
    const char *app;
    ProtocolKind kind;
};

// Without this gtest lists the param as its raw bytes, which hold the
// address of the app name and so differ from one run to the next.
void
PrintTo(const MonotonicityCase &c, std::ostream *os)
{
    *os << c.app << "/" << protocolKindName(c.kind);
}

/**
 * Property: for a fixed deterministic application, layer costs order
 * execution time — worse communication is never faster than the base,
 * and the base is never faster than best communication.
 */
class LayerMonotonicity
    : public ::testing::TestWithParam<MonotonicityCase>
{
};

TEST_P(LayerMonotonicity, CommCostsOrderExecutionTime)
{
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 8;
    SweepRunner runner(opts);
    const AppInfo &app = findApp(GetParam().app);
    for (const char comm : {'W', 'A', 'B'})
        runner.plan(app, GetParam().kind, comm, 'O');
    runner.runPlanned();
    const Cycles worse =
        runner.run(app, GetParam().kind, 'W', 'O').parallelCycles;
    const Cycles base =
        runner.run(app, GetParam().kind, 'A', 'O').parallelCycles;
    const Cycles best =
        runner.run(app, GetParam().kind, 'B', 'O').parallelCycles;
    EXPECT_GE(worse, base);
    EXPECT_GE(base, best);
}

TEST_P(LayerMonotonicity, ProtoCostsOrderHlrcExecutionTime)
{
    if (GetParam().kind != ProtocolKind::Hlrc)
        GTEST_SKIP() << "protocol costs only vary for HLRC";
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 8;
    SweepRunner runner(opts);
    const AppInfo &app = findApp(GetParam().app);
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'B');
    runner.runPlanned();
    const Cycles original =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'O').parallelCycles;
    const Cycles best =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'B').parallelCycles;
    EXPECT_GE(original, best);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, LayerMonotonicity,
    ::testing::Values(MonotonicityCase{"lu", ProtocolKind::Hlrc},
                      MonotonicityCase{"lu", ProtocolKind::Sc},
                      MonotonicityCase{"ocean", ProtocolKind::Hlrc},
                      MonotonicityCase{"water-nsq", ProtocolKind::Hlrc},
                      MonotonicityCase{"volrend", ProtocolKind::Sc}),
    [](const ::testing::TestParamInfo<MonotonicityCase> &info) {
        std::string name = info.param.app;
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        return name + "_" + protocolKindName(info.param.kind);
    });

} // namespace
} // namespace swsm
