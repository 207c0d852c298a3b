/**
 * @file
 * The memo of finished experiments (harness/memo.hh): entries round-trip
 * through the directory store, the result codec round-trips synthetic
 * and real HLRC/SC results, malformed blobs are rejected, a second
 * runner on the same directory replays a run byte-identically and a
 * whole grid without simulating it, truncated, bit-flipped and
 * old-layout entries read as misses and are rewritten, and two runners
 * filling one fresh directory concurrently get identical results.
 *
 * Every test writes into a private temporary directory, so parallel
 * ctest runs never share a memo.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/memo.hh"
#include "harness/sweep.hh"

namespace swsm
{
namespace
{

/** A private memo directory per test. */
class MemoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "swsm_memo_test_XXXXXX")
                               .string();
        ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    /** Tiny fft grid options on this test's memo directory. */
    SweepOptions
    options() const
    {
        SweepOptions opts;
        opts.size = SizeClass::Tiny;
        opts.numProcs = 4;
        opts.apps = {"fft"};
        opts.jobs = 2;
        opts.memoDir = dir_;
        return opts;
    }

    /** Memo key of fft's HLRC AO run in options(). */
    static std::string
    hlrcKey()
    {
        return "tiny/p4/" + SweepRunner::resultKey(findApp("fft"),
                                                   ProtocolKind::Hlrc,
                                                   'A', 'O');
    }

    /** The file holding hlrcKey() in this test's memo. */
    std::string
    entryPath() const
    {
        return dir_ + "/" + hlrcKey();
    }

    /** Simulate fft HLRC AO into this test's memo; its result. */
    ExperimentResult storeHlrcEntry() const;

    /**
     * With the hlrcKey() entry damaged, a new runner reads it as a
     * miss, simulates it again to @p want and rewrites it whole.
     */
    void expectRewritten(const ExperimentResult &want) const;

    std::string dir_;
};

/** Plan a grid of three: fft's Ideal, HLRC AO and SC AO runs. */
void
planTiny(SweepRunner &runner)
{
    const AppInfo &app = findApp("fft");
    runner.planIdeal(app);
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.plan(app, ProtocolKind::Sc, 'A', 'O');
}

/** runner.runPlanned(), returning its stderr (the memo summary). */
std::string
runCapturingStderr(SweepRunner &runner)
{
    ::testing::internal::CaptureStderr();
    runner.runPlanned();
    return ::testing::internal::GetCapturedStderr();
}

/** Every field a memo entry carries (all but sequentialCycles, trace). */
void
expectSameEntry(const ExperimentResult &a, const ExperimentResult &b,
                bool same_host_seconds = true)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.parallelCycles, b.parallelCycles);
    EXPECT_EQ(a.verified, b.verified);
    if (same_host_seconds) {
        EXPECT_EQ(a.hostSeconds, b.hostSeconds);
    }
    EXPECT_EQ(a.stats.totalCycles, b.stats.totalCycles);
    EXPECT_EQ(a.stats.finishTimes, b.stats.finishTimes);
    EXPECT_EQ(a.stats.metrics.counters, b.stats.metrics.counters);
    EXPECT_EQ(a.stats.metrics.gauges, b.stats.metrics.gauges);
    ASSERT_EQ(a.stats.metrics.histograms.size(),
              b.stats.metrics.histograms.size());
    for (std::size_t i = 0; i < a.stats.metrics.histograms.size(); ++i) {
        const auto &[an, ah] = a.stats.metrics.histograms[i];
        const auto &[bn, bh] = b.stats.metrics.histograms[i];
        EXPECT_EQ(an, bn);
        EXPECT_EQ(ah.total, bh.total) << an;
        EXPECT_EQ(ah.buckets, bh.buckets) << an;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
}

ExperimentResult
MemoTest::storeHlrcEntry() const
{
    const AppInfo &app = findApp("fft");
    SweepRunner fresh(options());
    fresh.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runCapturingStderr(fresh);
    return fresh.run(app, ProtocolKind::Hlrc, 'A', 'O');
}

void
MemoTest::expectRewritten(const ExperimentResult &want) const
{
    const AppInfo &app = findApp("fft");
    SweepRunner again(options());
    again.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    const std::string err = runCapturingStderr(again);
    // The baseline replays; the damaged entry is simulated again ...
    EXPECT_NE(err.find(": 1 replayed, 1 simulated"), std::string::npos)
        << err;
    expectSameEntry(again.run(app, ProtocolKind::Hlrc, 'A', 'O'), want,
                    false);
    // ... and rewritten whole.
    ExperimentResult out;
    std::string stored;
    ASSERT_TRUE(memo::load(dir_, hlrcKey(), stored));
    ASSERT_TRUE(memo::decodeResult(stored, out));
    expectSameEntry(out, want, false);
    // No temporary file outlives its rename.
    for (const auto &f : std::filesystem::recursive_directory_iterator(dir_))
        EXPECT_EQ(f.path().string().find(".tmp."), std::string::npos)
            << f.path();
}

TEST_F(MemoTest, StoreLoadRoundtrip)
{
    const std::string big(100000, '\0');
    ASSERT_TRUE(memo::store(dir_, "tiny/p4/alpha", "value-a"));
    ASSERT_TRUE(memo::store(dir_, "tiny/p4/fft/hlrc/AO", "value-b"));
    ASSERT_TRUE(memo::store(dir_, "tiny/baseline/fft", big));
    ASSERT_TRUE(memo::store(dir_, "tiny/p4/empty", ""));

    std::string v;
    EXPECT_TRUE(memo::load(dir_, "tiny/p4/alpha", v));
    EXPECT_EQ(v, "value-a");
    EXPECT_TRUE(memo::load(dir_, "tiny/p4/fft/hlrc/AO", v));
    EXPECT_EQ(v, "value-b");
    EXPECT_TRUE(memo::load(dir_, "tiny/baseline/fft", v));
    EXPECT_EQ(v, big);
    EXPECT_TRUE(memo::load(dir_, "tiny/p4/empty", v));
    EXPECT_EQ(v, "");

    v = "untouched";
    EXPECT_FALSE(memo::load(dir_, "tiny/p4/missing", v));
    EXPECT_FALSE(memo::load(dir_, "tiny/p8/alpha", v));
    EXPECT_EQ(v, "untouched");

    // A second store replaces the entry whole.
    ASSERT_TRUE(memo::store(dir_, "tiny/p4/alpha", "replacement"));
    EXPECT_TRUE(memo::load(dir_, "tiny/p4/alpha", v));
    EXPECT_EQ(v, "replacement");

    // One file per key, and no temporary file outlives its rename.
    std::size_t files = 0;
    for (const auto &f :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (f.is_regular_file())
            ++files;
        EXPECT_EQ(f.path().string().find(".tmp."), std::string::npos)
            << f.path();
    }
    EXPECT_EQ(files, 4u);
}

TEST_F(MemoTest, ResultCodecRoundtrip)
{
    ExperimentResult r;
    r.workload = "fft";
    r.config = "AO";
    r.protocol = "HLRC";
    r.parallelCycles = 123456789ull;
    r.sequentialCycles = 987654321ull;
    r.verified = true;
    r.hostSeconds = 1.5;
    r.stats.totalCycles = 123456789ull;
    r.stats.finishTimes = {123456000ull, 123456789ull, 42ull};
    r.stats.metrics.counters = {{"net.messages", 42},
                                {"proto.diffs", 7}};
    r.stats.metrics.gauges = {{"sim.events_per_sec", 1234.5}};
    HistogramData h;
    h.total = 10;
    h.buckets = {1, 0, 4, 5};
    r.stats.metrics.histograms = {{"net.latency", h}};

    ExperimentResult out;
    ASSERT_TRUE(memo::decodeResult(memo::encodeResult(r), out));
    expectSameEntry(out, r);
    // The runner stamps the baseline; the blob does not carry it.
    EXPECT_EQ(out.sequentialCycles, 0u);

    Cycles seq = 0;
    const std::string base = memo::encodeBaseline(424242);
    EXPECT_FALSE(memo::decodeResult(base, out)); // wrong magic
    ASSERT_TRUE(memo::decodeBaseline(base, seq));
    EXPECT_EQ(seq, 424242u);
}

TEST_F(MemoTest, ResultCodecRejectsMalformedBlobs)
{
    ExperimentResult r;
    r.workload = "w";
    r.stats.finishTimes = {1, 2};
    const std::string blob = memo::encodeResult(r);

    ExperimentResult out;
    out.workload = "untouched";
    EXPECT_FALSE(memo::decodeResult("", out));
    EXPECT_FALSE(memo::decodeResult("SW", out));
    // Truncation (inside finishTimes too) and trailing garbage are
    // both malformed.
    EXPECT_FALSE(memo::decodeResult({blob.data(), blob.size() - 1}, out));
    EXPECT_FALSE(memo::decodeResult(blob.substr(0, 40), out));
    EXPECT_FALSE(memo::decodeResult(blob + "x", out));
    EXPECT_EQ(out.workload, "untouched");

    Cycles seq = 0;
    EXPECT_FALSE(memo::decodeBaseline(blob, seq)); // wrong magic
}

TEST_F(MemoTest, RealHlrcAndScRunsRoundTrip)
{
    const AppInfo &app = findApp("lu");
    for (const ProtocolKind kind : {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
        ExperimentConfig cfg;
        cfg.protocol = kind;
        cfg.numProcs = 4;
        cfg.blockBytes = app.scBlockBytes;
        const ExperimentResult r =
            runExperiment(app.factory, SizeClass::Tiny, cfg, 0);
        ASSERT_TRUE(r.verified) << protocolKindName(kind);
        ASSERT_EQ(r.stats.finishTimes.size(), 4u);
        ASSERT_GT(r.stats.metrics.counter("net.messages"), 0u);

        ExperimentResult out;
        ASSERT_TRUE(memo::decodeResult(memo::encodeResult(r), out))
            << protocolKindName(kind);
        expectSameEntry(out, r);
        for (int b = 0; b < numTimeBuckets; ++b) {
            const auto bucket = static_cast<TimeBucket>(b);
            EXPECT_EQ(out.stats.avgBucket(bucket), r.stats.avgBucket(bucket))
                << timeBucketName(bucket);
        }
    }
}

TEST_F(MemoTest, SecondRunnerReplaysGridWithoutSimulating)
{
    const AppInfo &app = findApp("fft");
    MachineParams custom;
    custom.numProcs = 4;

    SweepRunner first(options());
    planTiny(first);
    first.plan(app, "fft/custom", custom, "custom");
    const std::string err1 = runCapturingStderr(first);
    EXPECT_NE(err1.find("memo " + dir_ +
                        ": 0 replayed, 5 simulated (1 custom"),
              std::string::npos)
        << err1;

    SweepRunner second(options());
    planTiny(second);
    second.plan(app, "fft/custom", custom, "custom");
    const std::string err2 = runCapturingStderr(second);
    // Baseline and the three grid items replay; the custom point's key
    // does not fix its parameters, so it always simulates.
    EXPECT_NE(err2.find("memo " + dir_ +
                        ": 4 replayed, 1 simulated (1 custom"),
              std::string::npos)
        << err2;

    EXPECT_EQ(second.baseline(app), first.baseline(app));
    first.forEachResult([&](const std::string &key,
                            const ExperimentResult &r) {
        SCOPED_TRACE(key);
        const ExperimentResult &again = second.result(key);
        expectSameEntry(again, r, key != "fft/custom");
        EXPECT_EQ(again.sequentialCycles, r.sequentialCycles);
        EXPECT_EQ(again.speedup(), r.speedup());
    });
}

TEST_F(MemoTest, ReplayedResultIsByteIdentical)
{
    const AppInfo &app = findApp("fft");
    SweepRunner first(options());
    first.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    const std::string err1 = runCapturingStderr(first);
    EXPECT_NE(err1.find(": 0 replayed, 2 simulated"), std::string::npos)
        << err1; // baseline + experiment
    const std::string stored = readFile(entryPath());
    ASSERT_FALSE(stored.empty());

    SweepRunner second(options());
    second.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    const std::string err2 = runCapturingStderr(second);
    EXPECT_NE(err2.find(": 2 replayed, 0 simulated"), std::string::npos)
        << err2;

    const ExperimentResult &fresh =
        first.run(app, ProtocolKind::Hlrc, 'A', 'O');
    const ExperimentResult &again =
        second.run(app, ProtocolKind::Hlrc, 'A', 'O');
    EXPECT_EQ(memo::encodeResult(again), memo::encodeResult(fresh));
    EXPECT_EQ(again.sequentialCycles, fresh.sequentialCycles);
    // A replay reads the entry; it does not write it again.
    EXPECT_EQ(readFile(entryPath()), stored);
}

TEST_F(MemoTest, GridSecondPassIsAllHits)
{
    const SweepOptions opts = options();
    const std::vector<GridItem> grid = figure3Grid(opts);
    std::set<std::string> keys; // SC's cost sets share keys
    for (const GridItem &item : grid) {
        keys.insert(item.ideal ? SweepRunner::idealKey(item.app)
                               : SweepRunner::resultKey(item.app, item.kind,
                                                        item.commSet,
                                                        item.protoSet));
    }
    ASSERT_GT(keys.size(), 1u);
    const auto planGrid = [&grid](SweepRunner &runner) {
        for (const GridItem &item : grid) {
            if (item.ideal)
                runner.planIdeal(item.app);
            else
                runner.plan(item.app, item.kind, item.commSet,
                            item.protoSet);
        }
    };
    // Every distinct grid experiment plus fft's baseline.
    const std::string all = std::to_string(keys.size() + 1);

    SweepRunner first(opts);
    planGrid(first);
    const std::string err1 = runCapturingStderr(first);
    EXPECT_NE(err1.find(": 0 replayed, " + all + " simulated\n"),
              std::string::npos)
        << err1;

    SweepRunner second(opts);
    planGrid(second);
    const std::string err2 = runCapturingStderr(second);
    EXPECT_NE(err2.find(": " + all + " replayed, 0 simulated\n"),
              std::string::npos)
        << err2;

    std::size_t n = 0;
    first.forEachResult([&](const std::string &key,
                            const ExperimentResult &r) {
        SCOPED_TRACE(key);
        ++n;
        const ExperimentResult &again = second.result(key);
        EXPECT_EQ(memo::encodeResult(again), memo::encodeResult(r));
        EXPECT_EQ(again.sequentialCycles, r.sequentialCycles);
    });
    EXPECT_EQ(n, keys.size());
}

TEST_F(MemoTest, TruncatedEntryReadsAsMissAndIsRewritten)
{
    const ExperimentResult want = storeHlrcEntry();
    const std::string good = readFile(entryPath());
    ASSERT_GT(good.size(), 16u);
    for (const std::size_t keep : {good.size() - 3, std::size_t{0}}) {
        SCOPED_TRACE(keep);
        writeFile(entryPath(), good.substr(0, keep));
        expectRewritten(want);
    }
}

TEST_F(MemoTest, BitFlippedEntryReadsAsMissAndIsRewritten)
{
    const ExperimentResult want = storeHlrcEntry();
    std::string flipped = readFile(entryPath());
    ASSERT_GT(flipped.size(), 16u);
    flipped[flipped.size() / 2] ^= 0x01;
    writeFile(entryPath(), flipped);
    expectRewritten(want);
}

TEST_F(MemoTest, OldMagicEntryReadsAsMissAndIsRewritten)
{
    const ExperimentResult want = storeHlrcEntry();
    // An entry of the previous result layout, with a valid checksum.
    std::string blob;
    ASSERT_TRUE(memo::load(dir_, hlrcKey(), blob));
    blob.replace(0, 4, "SWR1");
    ASSERT_TRUE(memo::store(dir_, hlrcKey(), blob));
    expectRewritten(want);
}

TEST_F(MemoTest, ConcurrentRunnersFillOneDirectory)
{
    std::vector<SweepRunner> runners(2, SweepRunner(options()));
    {
        std::vector<std::jthread> threads;
        for (SweepRunner &r : runners) {
            threads.emplace_back([&r] {
                planTiny(r);
                r.runPlanned();
            });
        }
    }
    const AppInfo &app = findApp("fft");
    EXPECT_EQ(runners[0].baseline(app), runners[1].baseline(app));
    std::size_t n = 0;
    runners[0].forEachResult(
        [&](const std::string &key, const ExperimentResult &r) {
            SCOPED_TRACE(key);
            ++n;
            const ExperimentResult &other = runners[1].result(key);
            expectSameEntry(other, r, false);
            EXPECT_EQ(other.sequentialCycles, r.sequentialCycles);
        });
    EXPECT_EQ(n, 3u);

    // Whatever interleaving the two writers took, every entry is whole.
    SweepRunner third(options());
    planTiny(third);
    const std::string err = runCapturingStderr(third);
    EXPECT_NE(err.find(": 4 replayed, 0 simulated"), std::string::npos)
        << err;
}

} // namespace
} // namespace swsm
