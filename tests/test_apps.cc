/**
 * @file
 * End-to-end application tests: every application version runs at the
 * Tiny size under every protocol and must produce numerically correct
 * output (the protocols move real bytes, so verification exercises the
 * full coherence machinery).
 */

#include <gtest/gtest.h>

#include "apps/app_registry.hh"
#include "harness/experiment.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

struct AppCase
{
    const char *app;
    ProtocolKind protocol;
    int procs;
};

void
PrintTo(const AppCase &c, std::ostream *os)
{
    *os << c.app << "/" << protocolKindName(c.protocol) << "/p"
        << c.procs;
}

class AppVerification : public ::testing::TestWithParam<AppCase>
{
};

TEST_P(AppVerification, ProducesCorrectOutput)
{
    const AppCase &c = GetParam();
    const AppInfo &app = findApp(c.app);

    ExperimentConfig cfg;
    cfg.protocol = c.protocol;
    cfg.numProcs = c.procs;
    cfg.blockBytes = app.scBlockBytes;

    const ExperimentResult r =
        runExperiment(app.factory, SizeClass::Tiny, cfg, 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.parallelCycles, 0u);
}

std::vector<AppCase>
allCases()
{
    std::vector<AppCase> cases;
    for (const AppInfo &app : appRegistry()) {
        for (auto kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc, ProtocolKind::Ideal})
            cases.push_back({app.name.c_str(), kind, 8});
        // Uneven processor counts exercise remainder partitioning.
        cases.push_back({app.name.c_str(), ProtocolKind::Hlrc, 3});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppVerification, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<AppCase> &info) {
        std::string name = info.param.app;
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        return name + "_" +
               std::string(protocolKindName(info.param.protocol)) + "_p" +
               std::to_string(info.param.procs);
    });

TEST(AppRegistry, HasAllPaperApplications)
{
    const auto &apps = appRegistry();
    EXPECT_EQ(apps.size(), 13u); // 9 originals + 4 restructured
    int restructured = 0;
    for (const auto &app : apps) {
        EXPECT_TRUE(app.factory != nullptr);
        if (app.restructured) {
            ++restructured;
            EXPECT_FALSE(app.originalOf.empty());
            EXPECT_NO_THROW(findApp(app.originalOf));
        }
    }
    EXPECT_EQ(restructured, 4);
}

TEST(AppRegistry, ScGranularitiesFollowThePaper)
{
    // "6[4] bytes in all other cases than the regular applications:
    // FFT, LU and Ocean [coarse]".
    EXPECT_EQ(findApp("fft").scBlockBytes, 4096u);
    EXPECT_EQ(findApp("lu").scBlockBytes, 2048u);
    EXPECT_EQ(findApp("ocean").scBlockBytes, 1024u);
    EXPECT_EQ(findApp("radix").scBlockBytes, 64u);
    EXPECT_EQ(findApp("barnes").scBlockBytes, 64u);
}

TEST(AppRegistry, UnknownAppIsFatal)
{
    EXPECT_THROW(findApp("no-such-app"), FatalError);
}

TEST(AppDeterminism, SameSeedSameResult)
{
    const AppInfo &app = findApp("radix");
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::Hlrc;
    cfg.numProcs = 4;
    const auto r1 = runExperiment(app.factory, SizeClass::Tiny, cfg, 1);
    const auto r2 = runExperiment(app.factory, SizeClass::Tiny, cfg, 1);
    EXPECT_EQ(r1.parallelCycles, r2.parallelCycles);
    EXPECT_EQ(r1.stats.metrics.counter("proto.msgs"),
              r2.stats.metrics.counter("proto.msgs"));
}

} // namespace
} // namespace swsm
