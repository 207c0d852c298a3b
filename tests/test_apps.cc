/**
 * @file
 * End-to-end application tests: every application version runs at the
 * Tiny size under every protocol and must produce numerically correct
 * output (the protocols move real bytes, so verification exercises the
 * full coherence machinery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/app_registry.hh"
#include "apps/app_util.hh"
#include "apps/radix.hh"
#include "harness/experiment.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

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

TEST(RadixSort, MatchesStdSort)
{
    Rng rng(5);
    std::vector<std::vector<std::uint32_t>> inputs(5);
    for (int i = 0; i < 5000; ++i) {
        inputs[0].push_back(static_cast<std::uint32_t>(rng.next64()));
        inputs[1].push_back(static_cast<std::uint32_t>(rng.nextBounded(7)) *
                            0x01010101u);
    }
    inputs[0].insert(inputs[0].end(), {0u, UINT32_MAX, 0u, UINT32_MAX});
    inputs[1].insert(inputs[1].end(), {UINT32_MAX, 0u});
    inputs[2].assign(3000, 0x80402010u);
    inputs[3] = {UINT32_MAX, 0u, 1u, UINT32_MAX - 1, 0x00ffff00u};
    // inputs[4] stays empty.
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        std::vector<std::uint32_t> want = inputs[k];
        std::sort(want.begin(), want.end());
        std::vector<std::uint32_t> got = inputs[k];
        radixSort(got);
        EXPECT_EQ(got, want) << "input " << k;
    }
}

TEST(RadixVerify, RejectsAWrongResult)
{
    // Radix allocates its output array first, so its sorted keys start
    // at address 0. Copying a key over its unequal neighbour leaves the
    // output sorted but no longer a permutation of the input; swapping
    // the two leaves a permutation that is not sorted. verify must
    // reject both.
    for (const bool swap_keys : {false, true}) {
        RadixWorkload radix(SizeClass::Tiny, false);
        MachineParams mp;
        mp.numProcs = 4;
        mp.protocol = ProtocolKind::Ideal;
        Cluster c(mp);
        radix.setup(c);
        c.run([&](Thread &t) { radix.body(t); });
        ASSERT_TRUE(radix.verify(c));

        std::uint32_t keys[64];
        c.debugRead(0, keys, sizeof(keys));
        std::size_t i = 0;
        while (i + 1 < 64 && keys[i] == keys[i + 1])
            ++i;
        ASSERT_LT(i + 1, 64u);
        if (swap_keys) {
            // (b) Two unequal keys out of order.
            std::swap(keys[i], keys[i + 1]);
        } else {
            // (a) Still sorted, but no longer a permutation.
            keys[i + 1] = keys[i];
        }
        c.initWrite(0, keys, sizeof(keys));
        EXPECT_FALSE(radix.verify(c))
            << (swap_keys ? "swapped keys" : "duplicated key");
    }
}

} // namespace
} // namespace swsm
