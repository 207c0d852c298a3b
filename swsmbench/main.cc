/**
 * @file
 * swsm_bench: run one benchmark workload and print its metrics.
 *
 *   swsm_bench --workload=NAME --fingerprints=DIR [--seed=N]
 *              [--seconds=N] [--trace=0|1] [--configs=main|heldout]
 *              [--record] [--trace-out=FILE]
 *
 * Untraced passes over the workload repeat until --seconds have elapsed
 * (at least one) and give the end-to-end metrics, as medians over the
 * passes. --trace=1 then adds one traced pass, which gives the
 * per-layer metrics and writes its spans as Chrome trace_event JSON to
 * --trace-out. Every metric is printed by name with its unit and what
 * it measures. The last line of output is one JSON object with the
 * keys correct, attempted, failed and metrics: the end-to-end metrics,
 * or under --trace=1 the per-layer ones. The exit status is 0 only when
 * every simulation finished, verified and matched its recorded
 * fingerprint, and 2 for bad arguments or a refused environment.
 * --record runs one pass and writes the fingerprints instead of
 * checking them.
 */

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hh"
#include "check/check.hh"
#include "harness/sweep.hh"
#include "mem/simd.hh"
#include "obs/json_writer.hh"

extern char **environ;

namespace
{

using namespace swsmbench;

struct Options
{
    std::string workload;
    std::string fingerprintDir;
    std::string traceOut;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    bool heldout = false;
    bool record = false;
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --fingerprints=DIR [--seed=N] "
                 "[--seconds=N] [--trace=0|1] [--configs=main|heldout] "
                 "[--record] [--trace-out=FILE]\n"
                 "  workloads:",
                 argv0);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

/** Parse all of @p text as a decimal number in [lo, hi]. */
bool
parseNumber(std::string_view text, std::uint64_t lo, std::uint64_t hi,
            std::uint64_t &out)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        std::string_view v;
        const auto flag = [&](std::string_view name) {
            if (!arg.starts_with(name))
                return false;
            v = arg.substr(name.size());
            return true;
        };
        bool ok = true;
        if (arg == "--record") {
            o.record = true;
        } else if (flag("--workload=")) {
            o.workload = v;
        } else if (flag("--fingerprints=")) {
            o.fingerprintDir = v;
        } else if (flag("--trace-out=")) {
            o.traceOut = v;
            ok = !v.empty();
        } else if (flag("--seed=")) {
            ok = parseNumber(v, 0, UINT64_MAX, o.seed);
        } else if (flag("--seconds=")) {
            ok = parseNumber(v, 1, 3600, o.seconds);
        } else if (flag("--trace=")) {
            ok = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (flag("--configs=")) {
            ok = v == "main" || v == "heldout";
            o.heldout = v == "heldout";
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr, "swsm_bench: bad argument \"%s\"\n",
                         argv[i]);
            return false;
        }
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
        std::fprintf(stderr, "swsm_bench: unknown workload \"%s\"\n",
                     o.workload.c_str());
        return false;
    }
    if (o.fingerprintDir.empty()) {
        std::fprintf(stderr,
                     "swsm_bench: --fingerprints=DIR is required\n");
        return false;
    }
    return true;
}

/**
 * False, after saying why, when the environment or the build would
 * change the measured program: these SWSM_* overrides select other
 * kernels, paths or worker counts, and compiled-in invariant checks
 * slow the hot paths.
 */
bool
measuredProgramIsDefault()
{
    static constexpr std::string_view overrides[] = {
        "SWSM_SIM_THREADS", "SWSM_FASTPATH", "SWSM_SIMD", "SWSM_JOBS",
        "SWSM_BUDGET"};
    bool ok = true;
    for (char **env = environ; *env; ++env) {
        const std::string_view entry = *env;
        const std::string_view name = entry.substr(0, entry.find('='));
        if (name.starts_with("SWSM_PDES") ||
            std::find(std::begin(overrides), std::end(overrides), name) !=
                std::end(overrides)) {
            std::fprintf(stderr,
                         "swsm_bench: refusing to run: %.*s is set and "
                         "changes the measured program; unset it\n",
                         static_cast<int>(name.size()), name.data());
            ok = false;
        }
    }
    if (swsm::check::enabled()) {
        std::fprintf(stderr, "swsm_bench: refusing to run: invariant "
                             "checking (SWSM_CHECK) is compiled in\n");
        ok = false;
    }
    return ok;
}

/** What a result depends on besides the code. */
struct Host
{
    int nproc = 0;
    std::string cpu;
    std::string simd;
    std::string compiler;
    std::string build;
};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        const std::string s = brand;
        const std::size_t first = s.find_first_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, s.find_last_not_of(' ') - first + 1);
    }
#endif
    return "unknown";
}

Host
describeHost()
{
    Host h;
    cpu_set_t set;
    CPU_ZERO(&set);
    h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(std::thread::hardware_concurrency());
    h.cpu = cpuModel();
    h.simd = swsm::simd::levelName(swsm::simd::activeLevel());
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build = SWSMBENCH_BUILD_TYPE;
    return h;
}

/** One reported number and what it measures. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** host time, host memory, host work, sim work, ratio or count */
    std::string kind;
    std::string note;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
count(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** End-to-end timings of one pass. */
struct PassTimes
{
    double wall = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double setup = 0.0;
    std::size_t samples = 0;
    std::size_t aboveP90 = 0;
};

PassTimes
passTimes(const PassResult &pass)
{
    PassTimes t;
    t.wall = pass.wall;
    std::vector<double> exp;
    for (const TaskResult &r : pass.tasks) {
        if (r.task->baseline)
            continue;
        exp.push_back(r.end - r.start);
        t.setup += r.setupSeconds;
    }
    t.p50 = percentile(exp, 50);
    t.p90 = percentile(exp, 90);
    t.samples = exp.size();
    t.aboveP90 = static_cast<std::size_t>(std::count_if(
        exp.begin(), exp.end(), [&t](double s) { return s > t.p90; }));
    return t;
}

double
medianOf(const std::vector<PassTimes> &passes, double PassTimes::*field)
{
    std::vector<double> v;
    for (const PassTimes &p : passes)
        v.push_back(p.*field);
    return percentile(v, 50);
}

Metric
p90Metric(double p90, const PassTimes &t)
{
    std::string note = "n=" + std::to_string(t.samples) + ", " +
                       std::to_string(t.aboveP90) + " above";
    if (t.aboveP90 < 10)
        note += ": fewer than ten, not a tail estimate";
    return {"exp_s_p90", p90, "s", "host time", note};
}

Metric
failedFracMetric(std::uint64_t failed, std::uint64_t attempted)
{
    return {"failed_frac", ratio(count(failed), count(attempted)), "frac",
            "ratio",
            std::to_string(failed) + " of " + std::to_string(attempted) +
                " simulations, all passes"};
}

std::vector<Metric>
endToEndMetrics(const std::vector<PassTimes> &passes)
{
    const std::string over =
        "; median of " + std::to_string(passes.size()) + " pass(es)";
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"wall_s", medianOf(passes, &PassTimes::wall), "s", "host time",
         "first simulation submitted to last finished" + over},
        {"exp_s_p50", medianOf(passes, &PassTimes::p50), "s", "host time",
         "per experiment, factory to teardown, n=" +
             std::to_string(passes.front().samples) + over},
        {"setup_s", medianOf(passes, &PassTimes::setup), "s", "host time",
         "sum of workload + Cluster construction + setup" + over},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
         "host memory", "process high-water mark"},
    };
}

std::vector<Metric>
perLayerMetrics(const Workload &w, const PassResult &traced,
                double untraced_wall, std::uint64_t failed,
                std::uint64_t attempted)
{
    const std::vector<double> self = selfTimes(traced.spans);
    std::map<std::string_view, double> self_s;
    for (std::size_t i = 0; i < self.size(); ++i)
        self_s[traced.spans[i].name] += self[i];

    LayerCounts c;
    double busy = 0.0;
    std::uint64_t verify_failed = 0;
    std::uint64_t run_failed = 0;
    std::uint64_t mismatches = 0;
    for (const TaskResult &r : traced.tasks) {
        c.add(r.counts);
        busy += r.end - r.start;
        verify_failed += r.verifyFailed;
        run_failed += r.runFailed;
        mismatches += r.mismatch;
    }
    const PassTimes t = passTimes(traced);
    const double run_s = self_s["run"];
    return {
        p90Metric(t.p90, t),
        failedFracMetric(failed, attempted),
        {"harness.baseline_s", self_s["baseline"], "s", "host time",
         "runSequentialBaseline"},
        {"harness.idle_frac", idleFraction(busy, w.workers, traced.wall),
         "frac", "ratio", "1 - busy worker-seconds / (workers x wall)"},
        {"apps.factory_s", self_s["factory"], "s", "host time",
         "AppInfo::factory"},
        {"apps.setup_s", self_s["setup"], "s", "host time",
         "Workload::setup"},
        {"apps.verify_s", self_s["verify"], "s", "host time",
         "Workload::verify"},
        {"apps.verify_failed", count(verify_failed), "count", "count", ""},
        {"machine.construct_s", self_s["construct"], "s", "host time",
         "Cluster::Cluster"},
        {"machine.run_s", run_s, "s", "host time", "Cluster::run"},
        {"machine.destroy_s", self_s["teardown"], "s", "host time",
         "Cluster::~Cluster"},
        {"machine.run_failed", count(run_failed), "count", "count", ""},
        {"machine.fastpath_hit_frac",
         ratio(count(c.fastpathHits),
               count(c.fastpathHits + c.fastpathMisses)),
         "frac", "ratio", "fast-path hits / lookups"},
        {"mem.cache_accesses", count(c.cacheAccesses), "count", "sim work",
         "L1 hits + misses, all nodes"},
        {"mem.simd_twin_copy_bytes", count(c.simdTwinCopyBytes), "B",
         "host work", ""},
        {"mem.simd_diff_scan_bytes", count(c.simdDiffScanBytes), "B",
         "host work", ""},
        {"mem.simd_apply_words", count(c.simdApplyWords), "count",
         "host work", ""},
        {"proto.page_fetches", count(c.pageFetches), "count", "sim work",
         ""},
        {"proto.twins_created", count(c.twinsCreated), "count", "sim work",
         ""},
        {"proto.diffs_created", count(c.diffsCreated), "count", "sim work",
         ""},
        {"proto.handlers_run", count(c.handlersRun), "count", "sim work",
         ""},
        {"proto.diff_scan_yield",
         ratio(4.0 * count(c.diffWordsWritten), count(c.simdDiffScanBytes)),
         "frac", "ratio", "4 x diff words written / diff-scan bytes"},
        {"proto.pool_page_reuse_frac",
         ratio(count(c.poolPageReuses),
               count(c.poolPageAllocs + c.poolPageReuses)),
         "frac", "ratio", "page buffers reused / acquired"},
        {"net.messages", count(c.netMessages), "count", "sim work", ""},
        {"net.bytes", count(c.netBytes), "B", "sim work", ""},
        {"comm.requests", count(c.commRequests), "count", "sim work", ""},
        {"comm.data", count(c.commData), "count", "sim work", ""},
        {"sim.events_run", count(c.eventsRun), "count", "host work", ""},
        {"sim.max_pending_events", count(c.maxPendingEvents), "count",
         "host work", "max over experiments"},
        {"sim.run_ns_per_event", ratio(run_s * 1e9, count(c.eventsRun)),
         "ns", "host time", "machine.run_s / sim.events_run"},
        {"bench.fingerprint_mismatch", count(mismatches), "count", "count",
         ""},
        {"bench.trace_overhead_s", traced.wall - untraced_wall, "s",
         "host time", "traced wall_s - untraced wall_s"},
        {"bench.task_self_s", self_s["task"], "s", "host time",
         "in tasks, outside the timed calls"},
    };
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics) {
        std::printf("  %-27s %17.10g %-5s %-11s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.kind.c_str(),
                    m.note.c_str());
    }
}

/** The result line: correct, attempted, failed and @p metrics. */
std::string
resultLine(std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    swsm::JsonWriter w;
    w.beginObject();
    w.member("correct", failed == 0);
    w.member("attempted", attempted);
    w.member("failed", failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.member("value", m.value);
        w.member("unit", std::string_view(m.unit));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

/** Write the traced pass's spans as Chrome trace_event JSON. */
bool
writeTrace(const std::string &path, const PassResult &pass,
           const Host &host, const Options &o)
{
    swsm::JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Span &s : pass.spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("cat", s.layer);
        w.member("ph", "X");
        w.member("ts", s.start * 1e6);
        w.member("dur", (s.end - s.start) * 1e6);
        w.member("pid", 0);
        w.member("tid", s.worker);
        w.key("args");
        w.beginObject();
        w.member("task", s.task);
        w.member("span", s.id);
        if (s.parent == Span::noParent)
            w.member("key", std::string_view(pass.tasks[s.task].task->key));
        else
            w.member("parent", s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.member("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.member("workload", std::string_view(o.workload));
    w.member("configs", o.heldout ? "heldout" : "main");
    w.member("seed", o.seed);
    w.member("nproc", host.nproc);
    w.member("cpu", std::string_view(host.cpu));
    w.member("simd", std::string_view(host.simd));
    w.member("compiler", std::string_view(host.compiler));
    w.member("build", std::string_view(host.build));
    w.endObject();
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string &doc = w.str();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                    std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

std::string
failureReason(const TaskResult &r, const FingerprintTable &recorded)
{
    if (r.threw)
        return "threw in " + r.error;
    if (r.verifyFailed)
        return "verify() returned false";
    const auto it = recorded.find(r.task->key);
    if (it == recorded.end())
        return "no recorded fingerprint";
    return "fingerprint " + r.fingerprint + " differs from the recorded " +
           it->second;
}

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t)
        .count();
}

int
run(const Options &o)
{
    Workload w;
    makeWorkload(o.workload, o.heldout, o.seed, w);
    const char *configs = o.heldout ? "heldout" : "main";
    const std::string fp_path = o.fingerprintDir + "/" + w.name +
                                (o.heldout ? ".heldout" : "") + ".txt";
    FingerprintTable recorded;
    if (!o.record && !readFingerprints(fp_path, recorded)) {
        std::fprintf(stderr,
                     "swsm_bench: cannot read recorded fingerprints %s "
                     "(write them with --record)\n",
                     fp_path.c_str());
        return 1;
    }

    const Host host = describeHost();
    const auto baselines = static_cast<std::size_t>(
        std::count_if(w.tasks.begin(), w.tasks.end(),
                      [](const Task &t) { return t.baseline; }));
    std::printf("swsm_bench: workload %s, %s configurations, seed %" PRIu64
                ", %" PRIu64 " s, trace %d\n",
                w.name.c_str(), configs, o.seed, o.seconds, o.trace ? 1 : 0);
    std::printf("host: nproc %d, cpu \"%s\", simd %s, compiler \"%s\", "
                "build %s\n",
                host.nproc, host.cpu.c_str(), host.simd.c_str(),
                host.compiler.c_str(), host.build.c_str());
    std::printf("tasks: %zu experiments + %zu baselines at size %s on %d "
                "closed-loop worker(s); every experiment simulates 16 "
                "nodes on the serial event kernel and starts with empty "
                "simulated caches\n",
                w.tasks.size() - baselines, baselines,
                swsm::sizeClassName(w.size), w.workers);
    std::fflush(stdout);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Check one pass's outputs and count its failures.
    const auto check = [&](PassResult &pass, const char *label) {
        if (!o.record)
            checkFingerprints(pass.tasks, recorded);
        std::uint64_t pass_failed = 0;
        for (const TaskResult &r : pass.tasks) {
            if (!r.failed())
                continue;
            ++pass_failed;
            std::fprintf(stderr, "FAILED %s: %s\n", r.task->key.c_str(),
                         failureReason(r, recorded).c_str());
        }
        attempted += pass.tasks.size();
        failed += pass_failed;
        std::printf("%s pass: wall %.3f s, %zu simulations, %" PRIu64
                    " failed\n",
                    label, pass.wall, pass.tasks.size(), pass_failed);
        std::fflush(stdout);
    };

    if (o.record) {
        PassResult pass = runPass(w, false);
        check(pass, "recording");
        if (failed)
            return 1;
        const std::string title = "swsm_bench fingerprints: workload " +
                                  w.name + ", " + configs +
                                  " configurations";
        if (!writeFingerprints(fp_path, title, pass.tasks)) {
            std::fprintf(stderr, "swsm_bench: cannot write %s\n",
                         fp_path.c_str());
            return 1;
        }
        std::printf("recorded %zu fingerprints to %s\n", pass.tasks.size(),
                    fp_path.c_str());
        return 0;
    }

    std::vector<PassTimes> times;
    const auto start = std::chrono::steady_clock::now();
    do {
        PassResult pass = runPass(w, false);
        check(pass, "untraced");
        times.push_back(passTimes(pass));
    } while (secondsSince(start) < static_cast<double>(o.seconds));
    const std::vector<Metric> end_to_end = endToEndMetrics(times);
    printMetrics("end to end (untraced passes)", end_to_end);

    if (!o.trace) {
        printMetrics("also measured (per-layer list, reported under "
                     "--trace=1)",
                     {p90Metric(medianOf(times, &PassTimes::p90),
                                times.front()),
                      failedFracMetric(failed, attempted)});
        std::printf("%s\n", resultLine(attempted, failed, end_to_end).c_str());
        return failed == 0 ? 0 : 1;
    }

    PassResult traced = runPass(w, true);
    check(traced, "traced");
    const std::vector<Metric> layers =
        perLayerMetrics(w, traced, medianOf(times, &PassTimes::wall), failed,
                        attempted);
    printMetrics("per layer (traced pass; times are span self times "
                 "summed over the pass)",
                 layers);
    if (!o.traceOut.empty() && !writeTrace(o.traceOut, traced, host, o)) {
        std::fprintf(stderr, "swsm_bench: cannot write %s\n",
                     o.traceOut.c_str());
        return 1;
    }
    std::printf("%s\n", resultLine(attempted, failed, layers).c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o)) {
        usage(argv[0]);
        return 2;
    }
    if (!measuredProgramIsDefault())
        return 2;
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "swsm_bench: %s\n", e.what());
        return 1;
    }
}
