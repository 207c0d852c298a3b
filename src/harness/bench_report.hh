/**
 * @file
 * Machine-readable wall-clock benchmark emitter.
 *
 * Every bench binary writes a BENCH_<name>.json next to its table
 * output: per-experiment simulated cycles and host wall-clock seconds
 * plus the total elapsed host time and the process's peak RSS, so the
 * simulator's performance trajectory across PRs is diffable without
 * parsing the human tables.
 *
 * The output directory defaults to the current working directory and
 * can be redirected with the SWSM_BENCH_DIR environment variable.
 */

#ifndef SWSM_HARNESS_BENCH_REPORT_HH
#define SWSM_HARNESS_BENCH_REPORT_HH

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace swsm
{

/**
 * Peak resident set of this process so far, in MiB (getrusage's
 * ru_maxrss / 1024: the unit of swsmbench's peak_rss_mb). Every
 * BENCH_*.json records it as the top-level "peakRssMb".
 */
double peakRssMb();

/** Collects per-experiment metrics and writes BENCH_<name>.json. */
class BenchReport
{
  public:
    /**
     * @param name bench short name ("fig3", "table4", ...)
     * @param opts sweep options, if the bench uses them (records jobs,
     *        size and processor count in the report header)
     */
    explicit BenchReport(std::string name,
                         const SweepOptions *opts = nullptr);

    /** Record one experiment under @p key. */
    void add(const std::string &key, const ExperimentResult &r);

    /** Record a sequential baseline. */
    void addBaseline(const std::string &app, Cycles seq);

    /** Record every baseline and result of @p runner (key order). */
    void addAll(const SweepRunner &runner);

    /**
     * Write BENCH_<name>.json — and, when the sweep options carried a
     * --trace path, the merged Chrome trace of every recorded
     * experiment (one pid per experiment, in add() order). Total host
     * seconds covers construction to this call.
     * @return false (with a warning) if a file cannot be written
     */
    bool write();

  private:
    /**
     * Render the BENCH-schema JSON document for everything recorded so
     * far, with @p wall_seconds as the top-level hostSeconds field and
     * @p peak_rss_mb as peakRssMb.
     */
    std::string render(double wall_seconds, double peak_rss_mb) const;

    struct Entry
    {
        std::string key;
        std::string workload;
        std::string protocol;
        std::string config;
        Cycles simCycles;
        Cycles seqCycles;
        bool verified;
        double hostSeconds;
        MetricsSnapshot metrics;
        std::shared_ptr<const TraceBuffer> trace;
    };

    std::string name;
    bool haveOpts = false;
    int jobs = 1;
    int numProcs = 0;
    std::string sizeName;
    std::string tracePath;
    std::chrono::steady_clock::time_point start;
    std::vector<Entry> entries;
    std::vector<std::pair<std::string, Cycles>> baselines;
};

} // namespace swsm

#endif // SWSM_HARNESS_BENCH_REPORT_HH
