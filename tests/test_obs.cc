/**
 * @file
 * Observability layer tests: JSON writer escaping, metrics registry,
 * BENCH/trace round trips through a minimal JSON parser, registry
 * totals against the nodes' own time buckets, trace determinism
 * across sweep worker counts, and option parsing.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app_registry.hh"
#include "harness/bench_report.hh"
#include "harness/sweep.hh"
#include "machine/cluster.hh"
#include "obs/json_writer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace swsm
{
namespace
{

// -----------------------------------------------------------------
// A minimal recursive-descent JSON parser, enough to round-trip what
// the writer emits (objects, arrays, strings with every escape the
// writer produces, numbers, booleans, null).
// -----------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos != s.size())
            fail("trailing data");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    char
    next()
    {
        if (pos >= s.size())
            fail("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (next() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (next()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    void
    parseLiteral(std::string_view lit)
    {
        if (s.substr(pos, lit.size()) != lit)
            fail("bad literal");
        pos += lit.size();
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s[pos] == 't') {
            parseLiteral("true");
            v.boolean = true;
        } else {
            parseLiteral("false");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(std::string(s.substr(start, pos - start)));
        return v;
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (next() != '"') {
            char c = s[pos++];
            if (c != '\\') {
                v.string.push_back(c);
                continue;
            }
            switch (next()) {
              case '"':
                v.string.push_back('"');
                break;
              case '\\':
                v.string.push_back('\\');
                break;
              case '/':
                v.string.push_back('/');
                break;
              case 'n':
                v.string.push_back('\n');
                break;
              case 't':
                v.string.push_back('\t');
                break;
              case 'r':
                v.string.push_back('\r');
                break;
              case 'b':
                v.string.push_back('\b');
                break;
              case 'f':
                v.string.push_back('\f');
                break;
              case 'u': {
                ++pos;
                if (pos + 4 > s.size())
                    fail("bad \\u escape");
                const unsigned code = static_cast<unsigned>(std::stoul(
                    std::string(s.substr(pos, 4)), nullptr, 16));
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported by test");
                v.string.push_back(static_cast<char>(code));
                pos += 3; // the ++pos below eats the 4th digit
                break;
              }
              default:
                fail("bad escape");
            }
            ++pos;
        }
        ++pos; // closing quote
        return v;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return v;
        while (true) {
            v.array.push_back(parseValue());
            skipWs();
            if (consume(']'))
                return v;
            expect(',');
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return v;
        while (true) {
            skipWs();
            JsonValue key = parseString();
            skipWs();
            expect(':');
            v.object.emplace(key.string, parseValue());
            skipWs();
            if (consume('}'))
                return v;
            expect(',');
        }
    }

    std::string_view s;
    std::size_t pos = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
tempDir()
{
    return ::testing::TempDir();
}

// -----------------------------------------------------------------
// JsonWriter
// -----------------------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb"), "a\\nb");
    EXPECT_EQ(JsonWriter::escape("a\tb"), "a\\tb");
    EXPECT_EQ(JsonWriter::escape("a\rb"), "a\\rb");
    EXPECT_EQ(JsonWriter::escape("a\bb"), "a\\bb");
    EXPECT_EQ(JsonWriter::escape("a\fb"), "a\\fb");
    EXPECT_EQ(JsonWriter::escape(std::string_view("a\x01"
                                                  "b",
                                                  3)),
              "a\\u0001b");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x1f", 1)), "\\u001f");
}

TEST(JsonWriter, NothingIsSilentlyDropped)
{
    // The old fprintf emitter dropped control characters entirely;
    // every input byte must survive a round trip now.
    std::string nasty;
    for (int c = 1; c < 0x21; ++c)
        nasty.push_back(static_cast<char>(c));
    nasty += "\"\\end";
    JsonWriter w;
    w.beginObject();
    w.member("k", std::string_view(nasty));
    w.endObject();
    const JsonValue v = JsonParser(w.str()).parse();
    EXPECT_EQ(v.at("k").string, nasty);
}

TEST(JsonWriter, StructureAndTypes)
{
    JsonWriter w(2);
    w.beginObject();
    w.member("u64", std::uint64_t(1) << 53);
    w.member("neg", std::int64_t(-7));
    w.member("flag", true);
    w.member("pi", 3.25);
    w.key("list");
    w.beginArray();
    w.value("x");
    w.nullValue();
    w.endArray();
    w.endObject();

    const JsonValue v = JsonParser(w.str()).parse();
    EXPECT_EQ(v.at("u64").number, 9007199254740992.0);
    EXPECT_EQ(v.at("neg").number, -7.0);
    EXPECT_TRUE(v.at("flag").boolean);
    EXPECT_EQ(v.at("pi").number, 3.25);
    ASSERT_EQ(v.at("list").array.size(), 2u);
    EXPECT_EQ(v.at("list").array[0].string, "x");
    EXPECT_EQ(v.at("list").array[1].kind, JsonValue::Kind::Null);
}

// -----------------------------------------------------------------
// Metrics registry
// -----------------------------------------------------------------

TEST(MetricsRegistry, SnapshotSortsAndReadsProviders)
{
    MetricsRegistry reg;
    std::uint64_t live = 1;
    reg.addCounter("b.two", [&live] { return live * 2; });
    reg.addCounter("a.one", [&live] { return live; });
    reg.addGauge("g", [] { return 0.5; });
    reg.addHistogram("h", [] {
        HistogramData h;
        h.total = 3;
        h.buckets = {1, 2, 0, 0};
        return h;
    });

    live = 21;
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a.one");
    EXPECT_EQ(snap.counter("a.one"), 21u);
    EXPECT_EQ(snap.counter("b.two"), 42u);
    EXPECT_EQ(snap.counter("missing"), 0u);
    EXPECT_EQ(snap.gauge("g"), 0.5);
    ASSERT_NE(snap.histogram("h"), nullptr);
    EXPECT_EQ(snap.histogram("h")->buckets.size(), 2u) << "trailing "
                                                          "zeros trimmed";
    EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsRegistry, DuplicateNamesThrow)
{
    MetricsRegistry reg;
    reg.addCounter("dup", [] { return 0u; });
    EXPECT_THROW(reg.addCounter("dup", [] { return 1u; }),
                 std::logic_error);
    EXPECT_THROW(reg.addGauge("dup", [] { return 0.0; }),
                 std::logic_error);
}

// -----------------------------------------------------------------
// Registry totals vs the nodes' and protocol's own statistics
// -----------------------------------------------------------------

TEST(RegistryVsLegacy, CountersMatchRunStats)
{
    const AppInfo &app = findApp("lu");
    MachineParams mp;
    mp.protocol = ProtocolKind::Hlrc;
    mp.numProcs = 4;
    const auto workload = app.factory(SizeClass::Tiny);
    Cluster c(mp);
    workload->setup(c);
    c.run([&](Thread &t) { workload->body(t); });
    ASSERT_TRUE(workload->verify(c));

    const RunStats &s = c.stats();
    const MetricsSnapshot &m = s.metrics;
    EXPECT_FALSE(m.empty());
    const ProtoStats &ps = c.protocol().stats();
    EXPECT_EQ(m.counter("proto.read_faults"), ps.readFaults.value());
    EXPECT_EQ(m.counter("proto.page_fetches"), ps.pageFetches.value());
    EXPECT_EQ(m.counter("proto.diffs_created"), ps.diffsCreated.value());

    // Figure 4 time buckets: the registry's time.* counters, which the
    // RunStats bucket accessors read, equal the nodes' own sums.
    std::uint64_t all = 0;
    for (int b = 0; b < numTimeBuckets; ++b) {
        const auto bucket = static_cast<TimeBucket>(b);
        const std::string name =
            std::string("time.") + timeBucketName(bucket);
        std::uint64_t sum = 0;
        for (NodeId n = 0; n < c.numProcs(); ++n)
            sum += c.node(n).bucket(bucket);
        EXPECT_EQ(m.counter(name), sum) << name;
        EXPECT_EQ(s.sumBucket(bucket), sum) << name;
        all += sum;
    }
    EXPECT_EQ(m.counter("time.total"), all);
    EXPECT_EQ(s.sumAllBuckets(), all);

    // Finish times: sim.total_cycles is the last node's.
    ASSERT_EQ(s.finishTimes.size(), static_cast<std::size_t>(c.numProcs()));
    Cycles finish = 0;
    for (NodeId n = 0; n < c.numProcs(); ++n) {
        EXPECT_EQ(s.finishTimes[n], c.node(n).finishTime()) << n;
        finish = std::max(finish, c.node(n).finishTime());
    }
    EXPECT_EQ(m.counter("sim.total_cycles"), finish);
    EXPECT_EQ(s.totalCycles, finish);

    // Kernel stats exist and are self-consistent.
    EXPECT_GT(m.counter("sim.events_run"), 0u);
    EXPECT_GE(m.counter("sim.events_scheduled"),
              m.counter("sim.events_run"));
    EXPECT_GT(m.counter("sim.max_pending_events"), 0u);

    // Resource histograms: one occupancy sample per use.
    const HistogramData *occ = m.histogram("net.ni.occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->total, m.counter("net.ni.uses"));
}

// -----------------------------------------------------------------
// BenchReport round trip (nasty strings included)
// -----------------------------------------------------------------

TEST(BenchReport, RoundTripsThroughParser)
{
    const std::string dir = tempDir();
    ASSERT_EQ(setenv("SWSM_BENCH_DIR", dir.c_str(), 1), 0);

    ExperimentResult r;
    r.workload = "name \"quoted\" back\\slash\nnewline\ttab";
    r.protocol = "hlrc";
    r.config = "AO";
    r.parallelCycles = 123456789;
    r.sequentialCycles = 987654321;
    r.verified = true;
    r.hostSeconds = 0.25;
    r.stats.metrics.counters.emplace_back("proto.read_faults", 7);
    HistogramData h;
    h.total = 2;
    h.buckets = {0, 2};
    r.stats.metrics.histograms.emplace_back("net.ni.occupancy", h);

    BenchReport report("obs_test");
    report.addBaseline("app\x01with control", 42);
    report.add("key/with\"specials\\", r);
    ASSERT_TRUE(report.write());
    unsetenv("SWSM_BENCH_DIR");

    const std::string text = readFile(dir + "/BENCH_obs_test.json");
    const JsonValue doc = JsonParser(text).parse();
    EXPECT_EQ(doc.at("bench").string, "obs_test");
    ASSERT_EQ(doc.at("baselines").array.size(), 1u);
    EXPECT_EQ(doc.at("baselines").array[0].at("app").string,
              "app\x01with control");
    ASSERT_EQ(doc.at("experiments").array.size(), 1u);
    const JsonValue &e = doc.at("experiments").array[0];
    EXPECT_EQ(e.at("key").string, "key/with\"specials\\");
    EXPECT_EQ(e.at("workload").string, r.workload);
    EXPECT_EQ(e.at("simCycles").number, 123456789.0);
    EXPECT_TRUE(e.at("verified").boolean);
    EXPECT_EQ(
        e.at("metrics").at("counters").at("proto.read_faults").number,
        7.0);
    const JsonValue &hist =
        e.at("metrics").at("histograms").at("net.ni.occupancy");
    EXPECT_EQ(hist.at("total").number, 2.0);
    ASSERT_EQ(hist.at("buckets").array.size(), 2u);
    EXPECT_EQ(hist.at("buckets").array[1].number, 2.0);

    std::remove((dir + "/BENCH_obs_test.json").c_str());
}

// -----------------------------------------------------------------
// Trace output
// -----------------------------------------------------------------

TEST(Trace, ChromeTraceIsValidJsonWithExpectedEvents)
{
    const AppInfo &app = findApp("lu");
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::Hlrc;
    cfg.numProcs = 4;
    cfg.trace = true;
    const ExperimentResult r =
        runExperiment(app.factory, SizeClass::Tiny, cfg, 0);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_FALSE(r.trace->events.empty());

    const std::string path = tempDir() + "/obs_trace_test.json";
    ASSERT_TRUE(writeChromeTrace(path, "lu/hlrc/AO", *r.trace));
    const JsonValue doc = JsonParser(readFile(path)).parse();
    const std::vector<JsonValue> &events = doc.at("traceEvents").array;
    ASSERT_GT(events.size(), 1u);
    EXPECT_EQ(events[0].at("ph").string, "M");
    EXPECT_EQ(events[0].at("args").at("name").string, "lu/hlrc/AO");

    bool saw_net = false, saw_proto = false, saw_wait = false;
    for (std::size_t i = 1; i < events.size(); ++i) {
        const JsonValue &e = events[i];
        const std::string cat = e.at("cat").string;
        saw_net |= cat == "net";
        saw_proto |= cat == "proto";
        saw_wait |= cat == "wait";
        const std::string ph = e.at("ph").string;
        EXPECT_TRUE(ph == "X" || ph == "i") << ph;
        EXPECT_GE(e.at("tid").number, 0.0);
        EXPECT_LT(e.at("tid").number, 4.0);
    }
    EXPECT_TRUE(saw_net);
    EXPECT_TRUE(saw_proto);
    EXPECT_TRUE(saw_wait);
    std::remove(path.c_str());
}

TEST(Trace, DisabledByDefault)
{
    const AppInfo &app = findApp("lu");
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::Hlrc;
    cfg.numProcs = 4;
    const ExperimentResult r =
        runExperiment(app.factory, SizeClass::Tiny, cfg, 0);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_TRUE(r.trace->events.empty());
}

TEST(Trace, SerialAndParallelSweepsProduceIdenticalBytes)
{
    const AppInfo &lu = findApp("lu");
    auto runSweep = [&](int jobs) {
        SweepOptions opts;
        opts.size = SizeClass::Tiny;
        opts.numProcs = 4;
        opts.jobs = jobs;
        opts.tracePath = "unused"; // turns tracing on in the runner
        SweepRunner runner(opts);
        runner.plan(lu, ProtocolKind::Hlrc, 'A', 'O');
        runner.plan(lu, ProtocolKind::Sc, 'A', 'O');
        runner.runPlanned();
        std::vector<TraceProcess> processes;
        std::vector<std::shared_ptr<const TraceBuffer>> keep;
        runner.forEachResult(
            [&](const std::string &key, const ExperimentResult &r) {
                keep.push_back(r.trace);
                processes.push_back(TraceProcess{key, r.trace.get()});
            });
        const std::string path = tempDir() + "/obs_trace_j" +
            std::to_string(jobs) + ".json";
        EXPECT_TRUE(writeChromeTrace(path, processes));
        std::string text = readFile(path);
        std::remove(path.c_str());
        return text;
    };

    const std::string serial = runSweep(1);
    const std::string parallel = runSweep(2);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // Still valid JSON with one process per experiment.
    const JsonValue doc = JsonParser(serial).parse();
    int metadata = 0;
    for (const JsonValue &e : doc.at("traceEvents").array)
        metadata += e.at("ph").string == "M";
    EXPECT_EQ(metadata, 2);
}

// -----------------------------------------------------------------
// Option parsing
// -----------------------------------------------------------------

TEST(ParseBoundedInt, RejectsGarbageAndClamps)
{
    int out = -1;
    EXPECT_FALSE(parseBoundedInt("", 1, 100, out));
    EXPECT_FALSE(parseBoundedInt("abc", 1, 100, out));
    EXPECT_FALSE(parseBoundedInt("12x", 1, 100, out));
    EXPECT_FALSE(parseBoundedInt("0", 1, 100, out));
    EXPECT_FALSE(parseBoundedInt("-3", 1, 100, out));
    EXPECT_FALSE(parseBoundedInt(" 4", 1, 100, out));
    EXPECT_EQ(out, -1) << "failed parses must not touch the output";
    EXPECT_TRUE(parseBoundedInt("4", 1, 100, out));
    EXPECT_EQ(out, 4);
    EXPECT_TRUE(parseBoundedInt("100000", 1, 100, out));
    EXPECT_EQ(out, 100) << "values above max clamp";
}

TEST(SweepOptionsParse, RejectsInvalidNumbers)
{
    auto tryParse = [](std::vector<std::string> args,
                       SweepOptions *out = nullptr) {
        std::vector<char *> argv;
        static char prog[] = "bench";
        argv.push_back(prog);
        for (std::string &a : args)
            argv.push_back(a.data());
        SweepOptions opts;
        const bool ok =
            opts.parse(static_cast<int>(argv.size()), argv.data());
        if (out)
            *out = opts;
        return ok;
    };

    EXPECT_FALSE(tryParse({"--jobs=abc"}));
    EXPECT_FALSE(tryParse({"--jobs=0"}));
    EXPECT_FALSE(tryParse({"--jobs=-2"}));
    EXPECT_FALSE(tryParse({"--procs=-3"}));
    EXPECT_FALSE(tryParse({"--procs=16banana"}));
    // Above SC's 32-bit sharer mask: rejected, not clamped.
    EXPECT_FALSE(tryParse({"--procs=33"}));
    EXPECT_FALSE(tryParse({"--procs=5000"}));
    EXPECT_FALSE(tryParse({"--trace="}));
    EXPECT_FALSE(tryParse({"--bogus"}));

    SweepOptions opts;
    EXPECT_TRUE(tryParse(
        {"--quick", "--procs=8", "--jobs=3", "--trace=t.json"}, &opts));
    EXPECT_EQ(opts.size, SizeClass::Tiny);
    EXPECT_EQ(opts.numProcs, 8);
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_EQ(opts.tracePath, "t.json");
    EXPECT_TRUE(tryParse({"--procs=32"}, &opts));
    EXPECT_EQ(opts.numProcs, maxProcs);
}

} // namespace
} // namespace swsm
