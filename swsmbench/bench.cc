#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "machine/cluster.hh"
#include "machine/thread.hh"

namespace swsmbench
{

void
LayerCounts::add(const LayerCounts &o)
{
    eventsRun += o.eventsRun;
    maxPendingEvents = std::max(maxPendingEvents, o.maxPendingEvents);
    fastpathHits += o.fastpathHits;
    fastpathMisses += o.fastpathMisses;
    cacheAccesses += o.cacheAccesses;
    simdTwinCopyBytes += o.simdTwinCopyBytes;
    simdDiffScanBytes += o.simdDiffScanBytes;
    simdApplyWords += o.simdApplyWords;
    pageFetches += o.pageFetches;
    twinsCreated += o.twinsCreated;
    diffsCreated += o.diffsCreated;
    diffWordsWritten += o.diffWordsWritten;
    handlersRun += o.handlersRun;
    poolPageAllocs += o.poolPageAllocs;
    poolPageReuses += o.poolPageReuses;
    netMessages += o.netMessages;
    netBytes += o.netBytes;
    commRequests += o.commRequests;
    commData += o.commData;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** Span ids reserved per task: the task span plus its timed calls. */
constexpr std::uint32_t spansPerTask = 8;

LayerCounts
readCounts(swsm::Cluster &cluster)
{
    const swsm::MetricsSnapshot &m = cluster.stats().metrics;
    LayerCounts c;
    c.eventsRun = m.counter("sim.events_run");
    c.maxPendingEvents = m.counter("sim.max_pending_events");
    c.fastpathHits = m.counter("machine.fastpath_hits");
    c.fastpathMisses = m.counter("machine.fastpath_misses");
    c.simdTwinCopyBytes = m.counter("mem.simd_twin_copy_bytes");
    c.simdDiffScanBytes = m.counter("mem.simd_diff_scan_bytes");
    c.simdApplyWords = m.counter("mem.simd_apply_words");
    c.pageFetches = m.counter("proto.page_fetches");
    c.twinsCreated = m.counter("proto.twins_created");
    c.diffsCreated = m.counter("proto.diffs_created");
    c.diffWordsWritten = m.counter("proto.diff_words_written");
    c.handlersRun = m.counter("proto.handlers_run");
    c.poolPageAllocs = m.counter("proto.pool_page_allocs");
    c.poolPageReuses = m.counter("proto.pool_page_reuses");
    c.netMessages = m.counter("net.messages");
    c.netBytes = m.counter("net.bytes");
    c.commRequests = m.counter("comm.requests");
    c.commData = m.counter("comm.data");
    for (swsm::NodeId n = 0; n < cluster.numProcs(); ++n) {
        const swsm::CacheModel &cache = cluster.node(n).cache();
        c.cacheAccesses += cache.l1Hits().value() + cache.l1Misses().value();
    }
    return c;
}

/**
 * Run task @p index of @p w, timing each call into a layer. An exception
 * from a call fails the task; spans go to @p spans when it is non-null.
 */
TaskResult
runTask(const Workload &w, std::uint32_t index, int worker,
        Clock::time_point origin, std::vector<Span> *spans)
{
    const Task &t = w.tasks[index];
    const auto now = [origin] {
        return std::chrono::duration<double>(Clock::now() - origin).count();
    };
    const std::uint32_t task_span = index * spansPerTask;
    std::uint32_t next_span = task_span + 1;
    const char *in_call = nullptr;
    // One call into a layer, recorded as a child of the task span.
    const auto timed = [&](const char *name, const char *layer,
                           auto &&call) {
        in_call = name;
        const double start = now();
        call();
        const double end = now();
        in_call = nullptr;
        if (spans) {
            spans->push_back(Span{next_span, task_span, index, name, layer,
                                  worker, start, end});
        }
        ++next_span;
        return end - start;
    };

    TaskResult r;
    r.task = &t;
    r.start = now();
    try {
        if (t.baseline) {
            timed("baseline", "harness", [&] {
                r.cycles = swsm::runSequentialBaseline(t.app.factory, w.size);
            });
            r.fingerprint = baselineFingerprint(r.cycles);
        } else {
            const swsm::MachineParams mp = t.config.machineParams();
            std::unique_ptr<swsm::Workload> app;
            std::unique_ptr<swsm::Cluster> cluster;
            r.setupSeconds += timed("factory", "apps",
                                    [&] { app = t.app.factory(w.size); });
            r.setupSeconds += timed("construct", "machine", [&] {
                cluster = std::make_unique<swsm::Cluster>(mp);
            });
            r.setupSeconds +=
                timed("setup", "apps", [&] { app->setup(*cluster); });
            timed("run", "machine", [&] {
                cluster->run([&app](swsm::Thread &th) { app->body(th); });
            });
            r.counts = readCounts(*cluster);
            r.cycles = cluster->stats().totalCycles;
            bool verified = false;
            timed("verify", "apps",
                  [&] { verified = app->verify(*cluster); });
            r.verifyFailed = !verified;
            r.fingerprint = experimentFingerprint(cluster->stats(), verified);
            timed("teardown", "machine", [&] { cluster.reset(); });
        }
    } catch (const std::exception &e) {
        r.threw = true;
        r.runFailed = in_call && std::string_view(in_call) == "run";
        r.error = std::string(in_call ? in_call : "task") + ": " + e.what();
    }
    r.end = now();
    if (spans) {
        spans->push_back(Span{task_span, Span::noParent, index, "task",
                              "bench", worker, r.start, r.end});
    }
    return r;
}

/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string
fnv1aHex(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

} // namespace

PassResult
runPass(const Workload &w, bool traced)
{
    PassResult pass;
    pass.tasks.resize(w.tasks.size());
    std::vector<std::vector<Span>> spans(w.workers);
    std::atomic<std::size_t> next{0};
    const Clock::time_point origin = Clock::now();
    {
        std::vector<std::jthread> workers;
        for (int k = 0; k < w.workers; ++k) {
            workers.emplace_back([&, k] {
                for (std::size_t i = next++; i < w.tasks.size(); i = next++) {
                    TaskResult &r = pass.tasks[i];
                    try {
                        r = runTask(w, static_cast<std::uint32_t>(i), k,
                                    origin, traced ? &spans[k] : nullptr);
                    } catch (...) {
                        // Only the benchmark's own bookkeeping gets here.
                        r.task = &w.tasks[i];
                        r.threw = true;
                        r.error = "benchmark bookkeeping failed";
                    }
                }
            });
        }
    } // the jthreads join here
    pass.wall =
        std::chrono::duration<double>(Clock::now() - origin).count();
    for (const std::vector<Span> &s : spans)
        pass.spans.insert(pass.spans.end(), s.begin(), s.end());
    std::sort(pass.spans.begin(), pass.spans.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return pass;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_id.emplace(spans[i].id, i);

    // Each span's children, clipped to the span's own interval.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = by_id.find(s.parent);
        if (s.parent == Span::noParent || it == by_id.end())
            continue;
        const Span &p = spans[it->second];
        const double lo = std::max(s.start, p.start);
        const double hi = std::min(s.end, p.end);
        if (hi > lo)
            children[it->second].emplace_back(lo, hi);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        // Length of the union of the (possibly overlapping) children.
        double covered = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] = spans[i].end - spans[i].start - covered;
    }
    return self;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double
idleFraction(double busy_seconds, int workers, double wall_seconds)
{
    if (workers <= 0 || wall_seconds <= 0.0)
        return 0.0;
    return 1.0 - busy_seconds / (workers * wall_seconds);
}

bool
fingerprinted(std::string_view metric)
{
    if (metric.starts_with("proto.pool_"))
        return false;
    return metric.starts_with("time.") || metric.starts_with("proto.") ||
           metric.starts_with("net.") || metric.starts_with("comm.") ||
           metric == "sim.total_cycles";
}

std::string
experimentFingerprint(const swsm::RunStats &stats, bool verified)
{
    std::ostringstream os;
    os << "verified " << verified << "\ncycles " << stats.totalCycles
       << "\nfinish";
    for (const swsm::Cycles c : stats.finishTimes)
        os << ' ' << c;
    os << '\n' << std::hexfloat;
    const swsm::MetricsSnapshot &m = stats.metrics;
    for (const auto &[name, v] : m.counters) {
        if (fingerprinted(name))
            os << name << ' ' << v << '\n';
    }
    for (const auto &[name, v] : m.gauges) {
        if (fingerprinted(name))
            os << name << ' ' << v << '\n';
    }
    for (const auto &[name, h] : m.histograms) {
        if (!fingerprinted(name))
            continue;
        os << name << ' ' << h.total;
        for (const std::uint64_t b : h.buckets)
            os << ' ' << b;
        os << '\n';
    }
    return fnv1aHex(os.str());
}

std::string
baselineFingerprint(swsm::Cycles cycles)
{
    return fnv1aHex("baseline " + std::to_string(cycles));
}

bool
readFingerprints(const std::string &path, FingerprintTable &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    out.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        std::string hex;
        if (!(fields >> key >> hex) || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos ||
            !out.emplace(key, hex).second) {
            return false;
        }
    }
    return !in.bad();
}

bool
writeFingerprints(const std::string &path, const std::string &title,
                  const std::vector<TaskResult> &results)
{
    std::map<std::string, const TaskResult *> sorted;
    for (const TaskResult &r : results)
        sorted.emplace(r.task->key, &r);
    std::ofstream out(path);
    out << "# " << title << "\n# key fingerprint simulated-cycles\n";
    for (const auto &[key, r] : sorted)
        out << key << ' ' << r->fingerprint << ' ' << r->cycles << '\n';
    out.close();
    return static_cast<bool>(out);
}

int
checkFingerprints(std::vector<TaskResult> &results,
                  const FingerprintTable &recorded)
{
    int mismatches = 0;
    for (TaskResult &r : results) {
        if (r.fingerprint.empty())
            continue;
        const auto it = recorded.find(r.task->key);
        r.mismatch = it == recorded.end() || it->second != r.fingerprint;
        mismatches += r.mismatch;
    }
    return mismatches;
}

} // namespace swsmbench
