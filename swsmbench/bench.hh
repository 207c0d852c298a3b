/**
 * @file
 * Host-time benchmark of the simulator.
 *
 * The benchmark runs named workloads in-process against the simulator
 * libraries. Each task is one simulation: a sequential baseline, or one
 * experiment whose calls into each layer are timed from here:
 * AppInfo::factory and Workload::setup/verify (apps), Cluster
 * construction, run and destruction (machine), runSequentialBaseline
 * (harness). After each run the per-layer work counts are read from
 * Cluster::stats().metrics and the nodes' cache models, and the
 * simulated outcome is reduced to a fingerprint that is checked against
 * a recorded one.
 *
 * Every Cluster is built fresh for its experiment, so the simulated
 * caches (and all other simulated state) start empty in every
 * experiment, and a fingerprint does not depend on the order tasks run
 * in.
 */

#ifndef SWSMBENCH_BENCH_HH
#define SWSMBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app_registry.hh"
#include "harness/experiment.hh"

namespace swsmbench
{

/** One simulation: a sequential baseline or one timed experiment. */
struct Task
{
    std::string key; ///< "radix/hlrc/AO", "radix/ideal", "radix/baseline"
    swsm::AppInfo app;
    bool baseline = false;
    swsm::ExperimentConfig config; ///< unused for baselines
};

/** A named workload: the tasks of one pass and how they are run. */
struct Workload
{
    std::string name;
    swsm::SizeClass size = swsm::SizeClass::Small;
    /**
     * Closed-loop sweep workers: each takes the next task only when its
     * previous one finished. 1 runs the tasks serially.
     */
    int workers = 1;
    std::vector<Task> tasks;
};

/** Workload names makeWorkload accepts. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name. @p heldout swaps its configurations for the
 * halfway sets of figure3Configs(true) on the same apps. Serial
 * workloads run their tasks in an order drawn from @p seed; the inputs
 * themselves are fixed by the apps' own seeds.
 * @return false on an unknown name
 */
bool makeWorkload(const std::string &name, bool heldout,
                  std::uint64_t seed, Workload &out);

/** One timed call, recorded only in a traced pass. */
struct Span
{
    static constexpr std::uint32_t noParent = UINT32_MAX;

    std::uint32_t id = 0;
    std::uint32_t parent = noParent;
    std::uint32_t task = 0; ///< shared by every span of one task
    const char *name = "";  ///< "task", "baseline", "factory", ...
    const char *layer = ""; ///< "bench", "harness", "apps", "machine"
    int worker = 0;
    double start = 0.0;     ///< host seconds since the pass started
    double end = 0.0;
};

/** Per-layer work counts of one experiment (sums over its nodes). */
struct LayerCounts
{
    std::uint64_t eventsRun = 0;
    std::uint64_t maxPendingEvents = 0; ///< add() keeps the maximum
    std::uint64_t fastpathHits = 0;
    std::uint64_t fastpathMisses = 0;
    std::uint64_t cacheAccesses = 0; ///< L1 hits + misses
    std::uint64_t simdTwinCopyBytes = 0;
    std::uint64_t simdDiffScanBytes = 0;
    std::uint64_t simdApplyWords = 0;
    std::uint64_t pageFetches = 0;
    std::uint64_t twinsCreated = 0;
    std::uint64_t diffsCreated = 0;
    std::uint64_t diffWordsWritten = 0;
    std::uint64_t handlersRun = 0;
    std::uint64_t poolPageAllocs = 0;
    std::uint64_t poolPageReuses = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
    std::uint64_t commRequests = 0;
    std::uint64_t commData = 0;

    void add(const LayerCounts &o);
};

/** Outcome of one task. */
struct TaskResult
{
    const Task *task = nullptr;
    double start = 0.0; ///< host seconds since the pass started
    double end = 0.0;
    /** Workload construction + Cluster construction + setup (s). */
    double setupSeconds = 0.0;
    bool threw = false;     ///< a call threw
    bool runFailed = false; ///< the call that threw was Cluster::run
    bool verifyFailed = false;
    bool mismatch = false;  ///< fingerprint missing from or unequal to the record
    std::string error;
    swsm::Cycles cycles = 0; ///< simulated cycles (diagnostics only)
    std::string fingerprint;
    LayerCounts counts;

    bool failed() const { return threw || verifyFailed || mismatch; }
};

/** One pass over a workload's tasks. */
struct PassResult
{
    double wall = 0.0; ///< first task submitted to last one finished
    std::vector<TaskResult> tasks;
    std::vector<Span> spans; ///< empty unless traced
};

/** Run every task of @p w once; record spans when @p traced. */
PassResult runPass(const Workload &w, bool traced);

/**
 * Self time of each span: its duration minus the part of that interval
 * its child spans cover.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * The @p p-th percentile (0..100) of @p samples by linear interpolation
 * between closest ranks; 0 for no samples.
 */
double percentile(std::vector<double> samples, double p);

/** 1 - busy worker-seconds / (workers * wall seconds). */
double idleFraction(double busy_seconds, int workers, double wall_seconds);

/**
 * True for the metrics a fingerprint covers: what the simulated machine
 * did (time.*, proto.* except the host pool counters, net.*, comm.*,
 * sim.total_cycles), never how the host computed it.
 */
bool fingerprinted(std::string_view metric);

/** Fingerprint of one experiment's simulated outcome (16 hex digits). */
std::string experimentFingerprint(const swsm::RunStats &stats,
                                  bool verified);

/** Fingerprint of a sequential baseline (its simulated cycles). */
std::string baselineFingerprint(swsm::Cycles cycles);

/** Recorded fingerprints by task key. */
using FingerprintTable = std::map<std::string, std::string>;

/** Read a fingerprint file; false when it cannot be read or parsed. */
bool readFingerprints(const std::string &path, FingerprintTable &out);

/** Write @p results' fingerprints sorted by key; false on I/O error. */
bool writeFingerprints(const std::string &path, const std::string &title,
                       const std::vector<TaskResult> &results);

/**
 * Mark every result whose fingerprint is missing from or differs from
 * @p recorded as a mismatch. Tasks that threw have no fingerprint and
 * are skipped (they already failed).
 * @return the number of mismatches
 */
int checkFingerprints(std::vector<TaskResult> &results,
                      const FingerprintTable &recorded);

} // namespace swsmbench

#endif // SWSMBENCH_BENCH_HH
