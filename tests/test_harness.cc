/**
 * @file
 * Harness-level tests: configuration expansion, parameter-set
 * invariants, option parsing (sim threads run only when asked), result
 * caching, and the coarse performance-monotonicity
 * properties the whole study rests on (better layer costs never make a
 * deterministic run slower, worse costs never make it faster).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
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

/** Unsets SWSM_SIM_THREADS for a test; restores it on scope exit. */
class SimThreadsEnv
{
  public:
    SimThreadsEnv()
    {
        if (const char *v = std::getenv("SWSM_SIM_THREADS"))
            saved_ = v;
        ::unsetenv("SWSM_SIM_THREADS");
    }

    ~SimThreadsEnv()
    {
        if (saved_)
            ::setenv("SWSM_SIM_THREADS", saved_->c_str(), 1);
        else
            ::unsetenv("SWSM_SIM_THREADS");
    }

  private:
    std::optional<std::string> saved_;
};

/** Parse @p args (after a program name) into fresh SweepOptions. */
SweepOptions
parsed(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    SweepOptions opts;
    EXPECT_TRUE(opts.parse(static_cast<int>(argv.size()), argv.data()));
    return opts;
}

TEST(SweepOptions, SimThreadsRunOnlyWhenAsked)
{
    SimThreadsEnv env;
    // Nothing asked: serial, however many cores a single job leaves.
    SweepOptions opts;
    opts.jobs = 1;
    EXPECT_EQ(opts.simThreads, 1);

    // SWSM_SIM_THREADS is taken as given, even with many jobs.
    ::setenv("SWSM_SIM_THREADS", "3", 1);
    SweepOptions from_env;
    from_env.jobs = 64;
    EXPECT_EQ(from_env.simThreads, 3);
    ::unsetenv("SWSM_SIM_THREADS");

    // So is an explicit flag.
    EXPECT_EQ(parsed({"--jobs=1", "--sim-threads=5"}).simThreads, 5);
}

TEST(SweepOptions, ExplicitSimThreadsWin)
{
    SimThreadsEnv env;
    ::setenv("SWSM_SIM_THREADS", "2", 1);
    EXPECT_EQ(parsed({"--jobs=4", "--sim-threads=6"}).simThreads, 6);
}

TEST(SweepRunner, CachesResultsAndBaselines)
{
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 4;
    SweepRunner runner(opts);
    const AppInfo &app = findApp("lu");
    const Cycles b1 = runner.baseline(app);
    const Cycles b2 = runner.baseline(app);
    EXPECT_EQ(b1, b2);
    const ExperimentResult &r1 =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'O');
    const ExperimentResult &r2 =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'O');
    EXPECT_EQ(&r1, &r2); // same cached object
}

TEST(SweepRunner, ScCollapsesProtoVariants)
{
    SweepOptions opts;
    opts.size = SizeClass::Tiny;
    opts.numProcs = 4;
    SweepRunner runner(opts);
    const AppInfo &app = findApp("lu");
    const ExperimentResult &ao =
        runner.run(app, ProtocolKind::Sc, 'A', 'O');
    const ExperimentResult &ab =
        runner.run(app, ProtocolKind::Sc, 'A', 'B');
    EXPECT_EQ(ao.parallelCycles, ab.parallelCycles);
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
