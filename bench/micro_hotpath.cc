/**
 * @file
 * Simulator data-path microbenchmark (host throughput, not simulated
 * cycles). Measures the hot loops of the simulator, and times the one
 * host-side accelerator (Thread's inline access check) on and off:
 *
 *  - accesses/sec: single-word shared reads and writes through a
 *    Thread on a warmed HLRC page, checked inline against the node's
 *    access state table vs the virtual Protocol::load/store on every
 *    reference (SWSM_FASTPATH=0 equivalent);
 *  - diff_scan words/sec: dense full-page twin comparison, the one
 *    scan every HLRC diff makes;
 *  - diff_apply words/sec: writing a diff's words into a home page;
 *  - events/sec: raw event-kernel schedule+dispatch throughput;
 *  - fiber ns/switch: resume+yield round trips into one fiber, the
 *    switch every simulated processor makes at each quantum and block;
 *  - cache_model ns: one CacheModel::access, and one 4 KB accessRange
 *    (the page walk behind every twin, diff and page copy);
 *  - message ns: one 4 KB message through a two-node Network, from
 *    send to delivery (the five-stage packet pipeline).
 *
 * Every measurement runs --reps=N times (default 3); throughputs come
 * from the fastest rep and the JSON carries per-section host seconds as
 * {"min", "median"} objects under "hostSeconds", so one descheduled rep
 * cannot skew a comparison between two reports. The fiber, cache_model
 * and message sections also report their per-operation cost as
 * {"min", "median"} ns. "simd_level" names the host CPU's vector level
 * (nothing dispatches on it) and "peakRssMb" the process's peak RSS.
 * Schema 5: no diff_scan_sparse section, since every HLRC diff is the
 * full-page scan diff_scan times; schema 4 dropped schema 3's
 * SIMD-vs-scalar arms and twin_create section.
 *
 * Writes BENCH_hotpath.json (SWSM_BENCH_DIR honored). The ratios are
 * host-dependent, so the ctest smoke run is report-only: it exercises
 * the loops and the JSON path but never fails on throughput.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fiber/fiber.hh"
#include "harness/bench_report.hh"
#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "mem/cache_model.hh"
#include "mem/simd.hh"
#include "net/network.hh"
#include "obs/json_writer.hh"
#include "proto/hlrc/diff.hh"
#include "sim/env.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace swsm;

constexpr std::uint32_t pageBytes = 4096;
constexpr std::uint32_t wordsPerPage = pageBytes / wordBytes;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** A page-sized pattern buffer. */
std::vector<std::uint8_t>
patternPage(std::uint8_t salt)
{
    std::vector<std::uint8_t> b(pageBytes);
    for (std::uint32_t i = 0; i < pageBytes; ++i)
        b[i] = static_cast<std::uint8_t>(i * 131 + salt);
    return b;
}

/**
 * Host seconds for 2*iters single-word shared accesses on a warmed
 * page. The simulated work is identical with the fast path on and off;
 * only how the access resolves on the host differs.
 */
double
accessSeconds(bool fast_path, std::uint64_t iters)
{
    MachineParams mp;
    mp.numProcs = 2;
    mp.protocol = ProtocolKind::Hlrc;
    mp.fastPath = fast_path;
    // A huge quantum keeps the timed loop out of the yield machinery,
    // so the measurement isolates the access path itself.
    mp.quantum = Cycles{1} << 40;
    Cluster c(mp);
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint32_t> a =
        SharedArray<std::uint32_t>::homedAt(c, 1024, 1);
    for (int i = 0; i < 1024; ++i)
        a.init(c, i, i);
    double elapsed = 0;
    c.run([&](Thread &t) {
        if (t.id() == 0) {
            // Warm: fetch the pages and enable write once.
            std::uint64_t sum = a.get(t, 0);
            a.put(t, 0, 1);
            const auto start = std::chrono::steady_clock::now();
            for (std::uint64_t i = 0; i < iters; ++i) {
                sum += a.get(t, i & 1023);
                a.put(t, (i + 512) & 1023,
                      static_cast<std::uint32_t>(sum));
            }
            elapsed = secondsSince(start);
            if (sum == 0)
                std::fprintf(stderr, "unexpected zero sum\n");
        }
        t.barrier(bar);
    });
    return elapsed;
}

/**
 * Host seconds for reps dense full-page diff scans. Eight scattered
 * dirty words: the compare path dominates.
 */
double
diffScanSeconds(std::uint64_t reps)
{
    const std::vector<std::uint8_t> twin = patternPage(0);
    std::vector<std::uint8_t> cur = twin;
    for (std::uint32_t w = 0; w < 8; ++w)
        cur[(w * 509 + 13) * 4 % pageBytes] ^= 0xff;

    hlrcdiff::DiffWords out;
    out.reserve(16);
    std::size_t found = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
        out.clear();
        hlrcdiff::diffWords(cur.data(), twin.data(), pageBytes, 0, out);
        found += out.size();
    }
    const double elapsed = secondsSince(start);
    if (found != 8 * reps)
        std::fprintf(stderr, "diff scan found %zu words, expected %llu\n",
                     found, static_cast<unsigned long long>(8 * reps));
    return elapsed;
}

/**
 * Host seconds for reps diff applies: one 256-word run plus 16
 * scattered singles, the common shape of a sequential writer with a
 * few stray updates.
 */
double
diffApplySeconds(std::uint64_t reps, std::size_t &words_per_rep)
{
    std::vector<std::uint8_t> home = patternPage(1);
    hlrcdiff::DiffWords words;
    for (std::uint32_t w = 64; w < 64 + 256; ++w)
        words.emplace_back(w, w * 2654435761u);
    for (std::uint32_t i = 0; i < 16; ++i)
        words.emplace_back(384 + i * 40, i * 40503u);
    words_per_rep = words.size();

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < reps; ++r)
        hlrcdiff::applyWords(home.data(), words);
    const double elapsed = secondsSince(start);
    if (home[64 * 4] == home[65 * 4] && home[0] == 0)
        std::fprintf(stderr, "unexpected apply result\n");
    return elapsed;
}

/** Host seconds to schedule + dispatch total events. */
double
eventSeconds(std::uint64_t total)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // A self-rescheduling chain of four events keeps the heap small
    // and the loop dominated by schedule/dispatch cost.
    std::function<void()> tick = [&] {
        if (++fired < total)
            eq.scheduleAfter(1, [&] { tick(); });
    };
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; ++i)
        eq.scheduleAfter(1, [&] { tick(); });
    eq.run();
    return secondsSince(start);
}

/**
 * Host seconds for @p round_trips resume+yield round trips into one
 * fiber, two switches each.
 */
double
fiberSeconds(std::uint64_t round_trips)
{
    Fiber f([round_trips] {
        for (std::uint64_t i = 0; i < round_trips; ++i)
            Fiber::yield();
    });
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < round_trips; ++i)
        f.resume();
    const double elapsed = secondsSince(start);
    f.resume(); // let the body return
    return elapsed;
}

/**
 * Host seconds for @p refs CacheModel::access calls striding a page
 * plus a line through 1 MB, so the references mix L1 hits, L2 hits
 * and misses.
 */
double
cacheAccessSeconds(std::uint64_t refs)
{
    CacheModel cache{MemoryParams{}};
    GlobalAddr addr = 0;
    Cycles stall = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < refs; ++i) {
        stall += cache.access(addr, false);
        addr = (addr + pageBytes + 32) & 0xfffff;
    }
    const double elapsed = secondsSince(start);
    if (stall == 0)
        std::fprintf(stderr, "cache access loop never stalled\n");
    return elapsed;
}

/**
 * Host seconds for @p walks 4 KB CacheModel::accessRange calls over
 * 256 consecutive pages, four times the L2.
 */
double
cacheRangeSeconds(std::uint64_t walks)
{
    CacheModel cache{MemoryParams{}};
    Cycles stall = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < walks; ++i)
        stall += cache.accessRange((i & 255) * pageBytes, pageBytes, false);
    const double elapsed = secondsSince(start);
    if (stall == 0)
        std::fprintf(stderr, "cache range loop never stalled\n");
    return elapsed;
}

/** Host seconds to simulate @p messages 4 KB messages, one at a time. */
double
messageSeconds(std::uint64_t messages)
{
    EventQueue eq;
    Network net(eq, 2, CommParams::achievable());
    std::uint64_t delivered = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < messages; ++i) {
        net.send(0, 1, pageBytes, eq.now(),
                 [&delivered](Cycles) { ++delivered; });
        eq.run();
    }
    const double elapsed = secondsSince(start);
    if (delivered != messages)
        std::fprintf(stderr, "delivered %llu of %llu messages\n",
                     static_cast<unsigned long long>(delivered),
                     static_cast<unsigned long long>(messages));
    return elapsed;
}

/** Min/median over a measurement's reps. */
struct Reps
{
    std::vector<double> seconds;

    double
    min() const
    {
        return *std::min_element(seconds.begin(), seconds.end());
    }

    double
    median() const
    {
        std::vector<double> v = seconds;
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    }
};

template <typename Fn>
Reps
measure(int reps, Fn fn)
{
    Reps r;
    r.seconds.reserve(reps);
    for (int i = 0; i < reps; ++i)
        r.seconds.push_back(fn());
    return r;
}

/** "hostSeconds" section: {"min": ..., "median": ...} over its arms. */
void
writeSection(JsonWriter &w, const char *name,
             std::initializer_list<const Reps *> parts)
{
    double min_total = 0, median_total = 0;
    for (const Reps *r : parts) {
        min_total += r->min();
        median_total += r->median();
    }
    w.key(name);
    w.beginObject();
    w.member("min", min_total);
    w.member("median", median_total);
    w.endObject();
}

/** {"min": ..., "median": ...} ns per operation of one measurement. */
void
writeNsPerOp(JsonWriter &w, const char *name, const Reps &r, double ops)
{
    w.key(name);
    w.beginObject();
    w.member("min", r.min() * 1e9 / ops);
    w.member("median", r.median() * 1e9 / ops);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--reps=", 7) != 0 ||
                   !parseBoundedInt(argv[i] + 7, 1, 1000, reps)) {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--reps=N]  (N an integer "
                         "in [1, 1000])\n",
                         argv[0]);
            return 2;
        }
    }
    const std::uint64_t access_iters = quick ? 200'000 : 2'000'000;
    const std::uint64_t diff_reps = quick ? 20'000 : 200'000;
    const std::uint64_t apply_reps = quick ? 50'000 : 500'000;
    const std::uint64_t event_total = quick ? 500'000 : 5'000'000;
    const std::uint64_t fiber_trips = quick ? 500'000 : 5'000'000;
    const std::uint64_t cache_refs = quick ? 1'000'000 : 10'000'000;
    const std::uint64_t cache_walks = quick ? 10'000 : 100'000;
    const std::uint64_t message_total = quick ? 50'000 : 500'000;

    const Reps acc_fast =
        measure(reps, [&] { return accessSeconds(true, access_iters); });
    const Reps acc_slow =
        measure(reps, [&] { return accessSeconds(false, access_iters); });
    const Reps scan =
        measure(reps, [&] { return diffScanSeconds(diff_reps); });
    std::size_t apply_words = 0;
    const Reps apply = measure(reps, [&] {
        return diffApplySeconds(apply_reps, apply_words);
    });
    const Reps events =
        measure(reps, [&] { return eventSeconds(event_total); });
    const Reps fiber =
        measure(reps, [&] { return fiberSeconds(fiber_trips); });
    const Reps cache_access =
        measure(reps, [&] { return cacheAccessSeconds(cache_refs); });
    const Reps cache_range =
        measure(reps, [&] { return cacheRangeSeconds(cache_walks); });
    const Reps message =
        measure(reps, [&] { return messageSeconds(message_total); });

    // Throughputs from the fastest rep of each measurement.
    const double work = static_cast<double>(2 * access_iters);
    const double af = work / acc_fast.min();
    const double as = work / acc_slow.min();
    const double scan_work =
        static_cast<double>(diff_reps) * wordsPerPage;
    const double sd = scan_work / scan.min();
    const double apply_work =
        static_cast<double>(apply_reps) * apply_words;
    const double ap = apply_work / apply.min();
    const double ev = static_cast<double>(event_total) / events.min();
    const double switches = 2.0 * static_cast<double>(fiber_trips);
    const double refs = static_cast<double>(cache_refs);
    const double walks = static_cast<double>(cache_walks);
    const double sent = static_cast<double>(message_total);

    const char *simd_level = simd::levelName(simd::activeLevel());
    std::printf("host simd level %s\n", simd_level);
    std::printf("accesses/sec      fastpath %.3e  slowpath %.3e  (%.2fx)\n",
                af, as, af / as);
    std::printf("diff scan w/sec   %.3e\n", sd);
    std::printf("diff apply w/sec  %.3e\n", ap);
    std::printf("events/sec        %.3e   (best of %d reps)\n", ev, reps);
    std::printf("fiber ns/switch   min %.1f  median %.1f\n",
                fiber.min() * 1e9 / switches,
                fiber.median() * 1e9 / switches);
    std::printf("cache ns/access   min %.1f  median %.1f\n",
                cache_access.min() * 1e9 / refs,
                cache_access.median() * 1e9 / refs);
    std::printf("cache ns/4KB walk min %.1f  median %.1f\n",
                cache_range.min() * 1e9 / walks,
                cache_range.median() * 1e9 / walks);
    std::printf("message ns/4KB    min %.1f  median %.1f\n",
                message.min() * 1e9 / sent, message.median() * 1e9 / sent);

    JsonWriter w(2);
    w.beginObject();
    w.member("schema", 5);
    w.member("bench", "hotpath");
    w.member("quick", quick);
    w.member("reps", reps);
    w.member("simd_level", simd_level);
    w.member("peakRssMb", peakRssMb());
    w.key("accesses_per_sec");
    w.beginObject();
    w.member("fastpath", af);
    w.member("slowpath", as);
    w.member("speedup", af / as);
    w.endObject();
    w.member("diff_scan_words_per_sec", sd);
    w.member("diff_apply_words_per_sec", ap);
    w.member("events_per_sec", ev);
    writeNsPerOp(w, "fiber_ns_per_switch", fiber, switches);
    writeNsPerOp(w, "cache_ns_per_access", cache_access, refs);
    writeNsPerOp(w, "cache_ns_per_4k_range", cache_range, walks);
    writeNsPerOp(w, "message_ns_per_4k", message, sent);
    w.key("hostSeconds");
    w.beginObject();
    writeSection(w, "access", {&acc_fast, &acc_slow});
    writeSection(w, "diff_scan", {&scan});
    writeSection(w, "diff_apply", {&apply});
    writeSection(w, "events", {&events});
    writeSection(w, "fiber", {&fiber});
    writeSection(w, "cache_model", {&cache_access, &cache_range});
    writeSection(w, "message", {&message});
    w.endObject();
    w.endObject();

    std::string dir = ".";
    if (const char *env = std::getenv("SWSM_BENCH_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_hotpath.json";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fputs(w.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}
