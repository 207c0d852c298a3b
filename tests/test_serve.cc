/**
 * @file
 * Sweep-server stack: the shared-memory memo cache (round-trip,
 * persistence across attaches, checksum corruption, stale-header
 * rebuild), the result codec, and the server lifecycle over the wire
 * protocol — cache-hit replays are byte-identical, concurrent clients
 * asking for the same uncached configuration simulate it once, a
 * corrupted segment is rejected and rebuilt instead of served, and bad
 * verbs, grid parameters or run parameters get an error event instead
 * of a fallback run. The client turns a wedged server or a dead socket into a
 * diagnostic.
 *
 * Every test routes segments and sockets into a private temp directory
 * via SWSM_SHM_DIR, so parallel ctest runs never share state and
 * nothing touches the developer's real /dev/shm cache.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/result_codec.hh"
#include "serve/server.hh"
#include "serve/shm_cache.hh"
#include "serve/wire.hh"

namespace swsm
{
namespace
{

/** Private SWSM_SHM_DIR per test: segments and sockets live there. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/swsm_serve_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        ::setenv("SWSM_SHM_DIR", dir_.c_str(), 1);
    }

    void
    TearDown() override
    {
        ::unsetenv("SWSM_SHM_DIR");
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string sock() const { return dir_ + "/serve.sock"; }

    std::string dir_;
};

/** XOR one byte of @p path in place (segment corruption injection). */
void
flipByte(const std::string &path, std::uint64_t off)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0) << path;
    std::uint8_t b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(off)), 1);
    b ^= 0xff;
    ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(off)), 1);
    ::close(fd);
}

TEST_F(ServeTest, ShmCacheRoundtrip)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // fresh file, not a rebuild
    EXPECT_EQ(cache.slotCount(), 16u);

    ASSERT_TRUE(cache.put("alpha", "value-a"));
    ASSERT_TRUE(cache.put("beta", "value-b"));
    ASSERT_TRUE(cache.put("gamma", std::string(1000, 'x')));

    std::string v;
    EXPECT_TRUE(cache.get("alpha", v));
    EXPECT_EQ(v, "value-a");
    EXPECT_TRUE(cache.get("gamma", v));
    EXPECT_EQ(v, std::string(1000, 'x'));
    EXPECT_FALSE(cache.get("missing", v));

    // First writer wins: a second put for a live key is a no-op.
    EXPECT_TRUE(cache.put("alpha", "usurper"));
    EXPECT_TRUE(cache.get("alpha", v));
    EXPECT_EQ(v, "value-a");

    const ShmCache::Stats st = cache.stats();
    EXPECT_EQ(st.inserts, 3u);
    EXPECT_EQ(st.slotsUsed, 3u);
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.evictions, 0u);

    std::size_t seen = 0;
    cache.forEach([&](std::string_view key, std::string_view value) {
        ++seen;
        if (key == "beta") {
            EXPECT_EQ(value, "value-b");
        }
    });
    EXPECT_EQ(seen, 3u);
}

TEST_F(ServeTest, ShmCachePersistsAcrossAttaches)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put("k", "persisted"));
    }
    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // valid header reattaches as-is
    std::string v;
    EXPECT_TRUE(cache.get("k", v));
    EXPECT_EQ(v, "persisted");
}

TEST_F(ServeTest, ShmCacheChecksumFailureReadsAsMissAndReclaims)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    const std::string key = "victim";
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put(key, "payload"));
    }
    // First entry's value starts right after its key at the arena base.
    const std::uint64_t arena0 = 128 + 16ull * 64;
    flipByte(ShmCache::pathFor("memo"), arena0 + key.size());

    ShmCache cache(o);
    EXPECT_FALSE(cache.wasRebuilt()); // header is fine, one entry isn't
    std::string v;
    EXPECT_FALSE(cache.get(key, v));
    EXPECT_EQ(cache.stats().slotsUsed, 0u); // slot reclaimed

    // The reclaimed key is insertable and readable again.
    ASSERT_TRUE(cache.put(key, "replacement"));
    EXPECT_TRUE(cache.get(key, v));
    EXPECT_EQ(v, "replacement");
}

TEST_F(ServeTest, ShmCacheStaleHeaderRebuilds)
{
    ShmCache::Options o;
    o.name = "memo";
    o.keySchema = 1;
    o.slotCount = 16;
    o.arenaBytes = 1 << 16;
    {
        ShmCache cache(o);
        ASSERT_TRUE(cache.put("k", "old-schema"));
    }
    // A schema bump invalidates the whole segment.
    ShmCache::Options o2 = o;
    o2.keySchema = 2;
    {
        ShmCache cache(o2);
        EXPECT_TRUE(cache.wasRebuilt());
        std::string v;
        EXPECT_FALSE(cache.get("k", v));
        EXPECT_EQ(cache.stats().slotsUsed, 0u);
    }
    // So does a corrupted magic.
    flipByte(ShmCache::pathFor("memo"), 0);
    ShmCache cache(o2);
    EXPECT_TRUE(cache.wasRebuilt());
}

TEST_F(ServeTest, ResultCodecRoundtrip)
{
    ExperimentResult r;
    r.workload = "fft";
    r.config = "AO";
    r.protocol = "HLRC";
    r.parallelCycles = 123456789ull;
    r.sequentialCycles = 987654321ull;
    r.verified = true;
    r.hostSeconds = 1.5;
    r.stats.metrics.counters = {{"net.messages", 42},
                                {"proto.diffs", 7}};
    r.stats.metrics.gauges = {{"sim.events_per_sec", 1234.5}};
    HistogramData h;
    h.total = 10;
    h.buckets = {1, 0, 4, 5};
    r.stats.metrics.histograms = {{"net.latency", h}};

    const std::string blob = codec::encodeResult(r);
    EXPECT_TRUE(codec::isResultBlob(blob));

    ExperimentResult out;
    ASSERT_TRUE(codec::decodeResult(blob, out));
    EXPECT_EQ(out.workload, r.workload);
    EXPECT_EQ(out.config, r.config);
    EXPECT_EQ(out.protocol, r.protocol);
    EXPECT_EQ(out.parallelCycles, r.parallelCycles);
    EXPECT_EQ(out.sequentialCycles, r.sequentialCycles);
    EXPECT_EQ(out.verified, r.verified);
    EXPECT_EQ(out.hostSeconds, r.hostSeconds);
    EXPECT_EQ(out.stats.metrics.counters, r.stats.metrics.counters);
    EXPECT_EQ(out.stats.metrics.gauges, r.stats.metrics.gauges);
    ASSERT_EQ(out.stats.metrics.histograms.size(), 1u);
    EXPECT_EQ(out.stats.metrics.histograms[0].first, "net.latency");
    EXPECT_EQ(out.stats.metrics.histograms[0].second.total, h.total);
    EXPECT_EQ(out.stats.metrics.histograms[0].second.buckets, h.buckets);

    Cycles seq = 0;
    const std::string base = codec::encodeBaseline(424242);
    EXPECT_FALSE(codec::isResultBlob(base));
    ASSERT_TRUE(codec::decodeBaseline(base, seq));
    EXPECT_EQ(seq, 424242u);
}

TEST_F(ServeTest, ResultCodecRejectsMalformedBlobs)
{
    ExperimentResult r;
    r.workload = "w";
    const std::string blob = codec::encodeResult(r);

    ExperimentResult out;
    EXPECT_FALSE(codec::decodeResult("", out));
    EXPECT_FALSE(codec::decodeResult("SW", out));
    // Truncation and trailing garbage are both malformed.
    EXPECT_FALSE(
        codec::decodeResult({blob.data(), blob.size() - 1}, out));
    EXPECT_FALSE(codec::decodeResult(blob + "x", out));

    Cycles seq = 0;
    EXPECT_FALSE(codec::decodeBaseline(blob, seq)); // wrong magic
}

/** An in-process server on its own accept thread. */
struct ServerHandle
{
    std::unique_ptr<Server> server;
    std::thread thread;

    explicit ServerHandle(const ServerOptions &opts)
        : server(std::make_unique<Server>(opts))
    {
        thread = std::thread([this] { server->run(); });
    }

    ~ServerHandle()
    {
        server->stop();
        thread.join();
    }
};

ServerOptions
testServerOptions(const std::string &sock_path)
{
    ServerOptions opts;
    opts.sockPath = sock_path;
    opts.segment = "memo";
    opts.slotCount = 256;
    opts.arenaBytes = 8 << 20;
    opts.jobs = 2;
    opts.simThreads = 1;
    return opts;
}

wire::Request
fftRunRequest()
{
    wire::Request req;
    req.verb = "run";
    req.params = {{"app", "fft"},  {"size", "tiny"}, {"procs", "4"},
                  {"proto", "hlrc"}, {"comm", "A"},  {"cost", "O"}};
    return req;
}

TEST_F(ServeTest, ServerAnswersPingAndRejectsUnknownVerbs)
{
    ServerHandle h(testServerOptions(sock()));
    wire::Request req;
    req.verb = "ping";
    ServeResponse r = serveRequest(sock(), req);
    EXPECT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_NE(r.events[0].find("\"pong\""), std::string::npos);

    // Unknown verbs get an error event rather than a silent no-op;
    // shard and shardwork are not verbs of this server.
    for (const char *verb : {"frobnicate", "shard", "shardwork"}) {
        req.verb = verb;
        r = serveRequest(sock(), req);
        EXPECT_FALSE(r.ok) << verb;
        EXPECT_NE(r.error.find("unknown verb"), std::string::npos)
            << verb << ": " << r.error;
    }
}

struct BadParam
{
    const char *key;
    const char *value;
    const char *diagnostic;
};

/**
 * Each bad parameter, set on @p base, must get an error event carrying
 * its diagnostic instead of a run on a fallback value.
 */
void
expectRejected(const std::string &sock, const wire::Request &base,
               std::initializer_list<BadParam> bad)
{
    for (const auto &[key, value, diagnostic] : bad) {
        wire::Request req = base;
        req.params[key] = value;
        const ServeResponse r = serveRequest(sock, req);
        EXPECT_FALSE(r.ok) << key << "=" << value;
        EXPECT_FALSE(r.haveDone) << key << "=" << value;
        ASSERT_FALSE(r.events.empty()) << key << "=" << value;
        EXPECT_NE(r.events.back().find("\"error\""), std::string::npos)
            << key << "=" << value << ": " << r.events.back();
        EXPECT_NE(r.error.find(diagnostic), std::string::npos)
            << key << "=" << value << ": " << r.error;
    }
}

TEST_F(ServeTest, ServerRejectsBadGridParameters)
{
    ServerHandle h(testServerOptions(sock()));
    wire::Request grid;
    grid.verb = "grid";
    grid.params = {{"size", "tiny"}, {"procs", "4"}, {"apps", "fft"}};
    expectRejected(sock(), grid,
                   {
                       {"apps", "fft,", "empty app name in \"fft,\""},
                       {"apps", ",fft", "empty app name"},
                       {"apps", "fftt", "unknown app \"fftt\""},
                       {"apps", "", "empty app name"},
                       {"full", "yes", "bad full"},
                       {"size", "huge", "bad size"},
                       {"procs", "0", "bad procs"},
                   });
    EXPECT_EQ(h.server->simRuns(), 0u); // nothing ran on a fallback
}

TEST_F(ServeTest, ServerRejectsBadRunParameters)
{
    ServerHandle h(testServerOptions(sock()));
    expectRejected(sock(), fftRunRequest(),
                   {
                       {"app", "fftt", "unknown app \"fftt\""},
                       {"proto", "scc", "bad proto"},
                       {"comm", "Q", "bad comm set"},
                       {"comm", "AB", "bad comm set"},
                       {"cost", "X", "bad cost set"},
                       {"cost", "", "bad cost set"},
                   });
    EXPECT_EQ(h.server->simRuns(), 0u); // nothing ran on a fallback
}

TEST_F(ServeTest, CacheHitReplayIsByteIdentical)
{
    ServerHandle h(testServerOptions(sock()));
    const ServeResponse r1 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r1.haveDone);
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_EQ(r1.misses, 2u); // baseline + experiment
    EXPECT_FALSE(r1.report.empty());
    EXPECT_EQ(h.server->simRuns(), 2u);

    const ServeResponse r2 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r2.misses, 0u);
    EXPECT_EQ(h.server->simRuns(), 2u); // replay, no new simulations
    EXPECT_EQ(r1.report, r2.report);    // byte-identical BENCH doc
}

TEST_F(ServeTest, ConcurrentClientsSimulateOnce)
{
    ServerHandle h(testServerOptions(sock()));
    constexpr int kClients = 4;
    std::vector<ServeResponse> resp(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            resp[i] = serveRequest(sock(), fftRunRequest());
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(resp[i].ok) << resp[i].error;
        EXPECT_EQ(resp[i].report, resp[0].report);
    }
    // In-flight dedup: one baseline + one experiment, no matter how
    // many clients raced for the same uncached configuration.
    EXPECT_EQ(h.server->simRuns(), 2u);
    EXPECT_EQ(h.server->metrics().counter("serve.sim_runs"), 2u);
    EXPECT_EQ(h.server->metrics().counter("serve.requests"),
              static_cast<std::uint64_t>(kClients));
}

TEST_F(ServeTest, CorruptSegmentIsRejectedAndRebuilt)
{
    const ServerOptions opts = testServerOptions(sock());
    {
        ServerHandle h(opts);
        const ServeResponse r = serveRequest(sock(), fftRunRequest());
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.misses, 2u);
    }
    flipByte(ShmCache::pathFor(opts.segment), 0); // smash the magic

    ServerHandle h(opts);
    EXPECT_TRUE(h.server->cache().wasRebuilt());
    const ServeResponse r1 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r1.hits, 0u); // stale data is gone, not served
    EXPECT_EQ(r1.misses, 2u);
    EXPECT_EQ(h.server->simRuns(), 2u);

    const ServeResponse r2 = serveRequest(sock(), fftRunRequest());
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.hits, 2u);
    EXPECT_EQ(r1.report, r2.report);
}

TEST_F(ServeTest, GridSecondPassIsAllHits)
{
    ServerHandle h(testServerOptions(sock()));
    wire::Request req;
    req.verb = "grid";
    req.params = {{"size", "tiny"}, {"procs", "4"}, {"apps", "fft"}};

    const ServeResponse r1 = serveRequest(sock(), req);
    ASSERT_TRUE(r1.ok) << r1.error;
    ASSERT_TRUE(r1.haveDone);
    EXPECT_EQ(r1.hits, 0u);
    EXPECT_GT(r1.misses, 0u);
    const std::uint64_t sims = h.server->simRuns();
    EXPECT_EQ(sims, r1.misses);

    const ServeResponse r2 = serveRequest(sock(), req);
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.misses, 0u); // acceptance: zero re-simulations
    EXPECT_EQ(r2.hits, r1.misses);
    EXPECT_EQ(h.server->simRuns(), sims);
    EXPECT_EQ(r1.report, r2.report);
}

// ---------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------

TEST_F(ServeTest, ClientTimesOutOnAWedgedServer)
{
    // A listener that accepts and then never responds.
    const std::string path = dir_ + "/wedged.sock";
    const int lfd = wire::listenUnix(path);
    ASSERT_GE(lfd, 0);

    ClientOptions copts;
    copts.timeoutMs = 100;
    wire::Request req;
    req.verb = "ping";
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResponse r = serveRequest(path, req, {}, copts);
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("stalled"), std::string::npos) << r.error;
    EXPECT_LT(elapsed.count(), 5000);
    ::close(lfd);
}

TEST_F(ServeTest, ClientFailsFastOnADeadSocket)
{
    // No server on the path: one connect attempt, then a diagnostic.
    wire::Request req;
    req.verb = "ping";
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResponse r =
        serveRequest(dir_ + "/nope.sock", req, {}, ClientOptions{});
    const auto elapsed = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cannot connect"), std::string::npos)
        << r.error;
    EXPECT_LT(elapsed.count(), 1000);
}

} // namespace
} // namespace swsm
