#include "bench_report.hh"

#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

#include "obs/json_writer.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{

void
writeSnapshot(JsonWriter &w, const MetricsSnapshot &m)
{
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, v] : m.counters)
        w.member(name, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, v] : m.gauges)
        w.member(name, v);
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : m.histograms) {
        w.key(name);
        w.beginObject();
        w.member("total", h.total);
        w.key("buckets");
        w.beginArray();
        for (const std::uint64_t count : h.buckets)
            w.value(count);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        SWSM_WARN("cannot write %s", path.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok)
        SWSM_WARN("short write to %s", path.c_str());
    return ok;
}

} // namespace

BenchReport::BenchReport(std::string name, const SweepOptions *opts)
    : name(std::move(name)), start(std::chrono::steady_clock::now())
{
    if (opts) {
        haveOpts = true;
        jobs = opts->jobs;
        numProcs = opts->numProcs;
        sizeName = sizeClassName(opts->size);
        tracePath = opts->tracePath;
    }
}

void
BenchReport::add(const std::string &key, const ExperimentResult &r)
{
    entries.push_back(Entry{key, r.workload, r.protocol, r.config,
                            r.parallelCycles, r.sequentialCycles,
                            r.verified, r.hostSeconds, r.stats.metrics,
                            r.trace});
}

void
BenchReport::addBaseline(const std::string &app, Cycles seq)
{
    baselines.emplace_back(app, seq);
}

void
BenchReport::addAll(const SweepRunner &runner)
{
    runner.forEachBaseline(
        [this](const std::string &app, Cycles seq) {
            addBaseline(app, seq);
        });
    runner.forEachResult(
        [this](const std::string &key, const ExperimentResult &r) {
            add(key, r);
        });
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
BenchReport::render(double wall_seconds, double peak_rss_mb) const
{
    JsonWriter w(2);
    w.beginObject();
    w.member("bench", name);
    if (haveOpts) {
        w.member("jobs", jobs);
        w.member("numProcs", numProcs);
        w.member("size", sizeName);
    }
    w.member("hostSeconds", wall_seconds);
    w.member("peakRssMb", peak_rss_mb);

    w.key("baselines");
    w.beginArray();
    for (const auto &[app, seq] : baselines) {
        w.beginObject();
        w.member("app", app);
        w.member("simCycles", static_cast<std::uint64_t>(seq));
        w.endObject();
    }
    w.endArray();

    w.key("experiments");
    w.beginArray();
    for (const Entry &e : entries) {
        const double speedup = e.simCycles
            ? static_cast<double>(e.seqCycles) /
                static_cast<double>(e.simCycles)
            : 0.0;
        w.beginObject();
        w.member("key", e.key);
        w.member("workload", e.workload);
        w.member("protocol", e.protocol);
        w.member("config", e.config);
        w.member("simCycles", static_cast<std::uint64_t>(e.simCycles));
        w.member("seqCycles", static_cast<std::uint64_t>(e.seqCycles));
        w.member("speedup", speedup);
        w.member("verified", e.verified);
        w.member("hostSeconds", e.hostSeconds);
        if (!e.metrics.empty()) {
            w.key("metrics");
            writeSnapshot(w, e.metrics);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

bool
BenchReport::write()
{
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::string path = "BENCH_" + name + ".json";
    if (const char *dir = std::getenv("SWSM_BENCH_DIR"))
        path = std::string(dir) + "/" + path;

    bool ok = writeFile(path, render(wall, peakRssMb()));

    if (!tracePath.empty()) {
        std::vector<TraceProcess> processes;
        processes.reserve(entries.size());
        for (const Entry &e : entries) {
            if (e.trace && !e.trace->events.empty())
                processes.push_back(TraceProcess{e.key, e.trace.get()});
        }
        if (!writeChromeTrace(tracePath, processes)) {
            SWSM_WARN("cannot write trace %s", tracePath.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace swsm
