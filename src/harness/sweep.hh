/**
 * @file
 * Sweep driver shared by the table/figure benchmark binaries.
 *
 * Runs (workload x configuration) grids with cached sequential
 * baselines, simple command-line options, and the paper's configuration
 * naming (comm set A/H/B/W/X x protocol set O/H/B; SC runs protocol
 * cost variants are meaningless and always use O with its fixed simple
 * handler cost, as in the paper).
 *
 * SweepRunner's caches are thread-safe so the parallel sweep engine
 * (harness/parallel_sweep.hh) can fill them from worker threads; each
 * individual simulation still runs confined to a single thread.
 */

#ifndef SWSM_HARNESS_SWEEP_HH
#define SWSM_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps/app_registry.hh"
#include "harness/experiment.hh"
#include "sim/env.hh"

namespace swsm
{

/**
 * Worker count used when --jobs is not given: the SWSM_JOBS
 * environment variable if set (invalid values warn and are ignored),
 * otherwise the hardware concurrency.
 */
int defaultJobs();

/** Largest cluster size the option parser accepts (clamped above). */
constexpr int maxProcs = 4096;
/** Largest worker count the option parser accepts (clamped above). */
constexpr int maxJobs = 1024;

/** Lower-case size-class name ("tiny", ..., "paper"). */
const char *sizeClassName(SizeClass size);

/** Parse a size-class name; false (out untouched) on unknown names. */
bool parseSizeClass(std::string_view name, SizeClass &out);

/**
 * Parse a comma-separated list of registry app names ("fft,lu"), the
 * one grammar shared by --apps and the sweep server's apps= parameter.
 * @return false, with a diagnostic in @p err and @p out untouched, when
 *         an element is empty ("fft,", ",fft", "") or names no
 *         registered app
 */
bool parseAppList(std::string_view list, std::vector<std::string> &out,
                  std::string &err);

/** Options shared by the bench binaries. */
struct SweepOptions
{
    SizeClass size = SizeClass::Small;
    int numProcs = 16;
    /** Workload names to run (empty = whole registry). */
    std::vector<std::string> apps;
    /** Include the halfway configurations (the "--full" grid). */
    bool full = false;
    /** Worker threads for the parallel sweep engine (1 = serial). */
    int jobs = defaultJobs();
    /**
     * Worker threads *inside* each simulation (the parallel event
     * kernel, sim/pdes.hh): --sim-threads=N, else SWSM_SIM_THREADS,
     * else 1. Orthogonal to jobs, which runs whole experiments
     * concurrently.
     */
    int simThreads = defaultSimThreads();
    /** Chrome trace_event output path (empty = tracing off). */
    std::string tracePath;

    /**
     * Parse --quick/--medium/--size=CLASS, --procs=N, --apps=a,b,c,
     * --full, --jobs=N, --sim-threads=N, --trace=FILE.
     * @return false (after printing usage) on unknown or invalid
     *         arguments
     */
    bool parse(int argc, char **argv);

    /** Apps to run: the selection or the whole registry. */
    std::vector<AppInfo> selectedApps() const;
};

/**
 * Runs experiments with per-app cached sequential baselines.
 *
 * All public methods are thread-safe; cache misses compute the
 * experiment on the calling thread. Returned references stay valid for
 * the runner's lifetime (map nodes are stable).
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepOptions &opts) : opts(opts) {}

    /** Sequential baseline cycles for @p app (cached). */
    Cycles baseline(const AppInfo &app);

    /**
     * Run @p app under protocol @p kind with comm/proto set letters.
     * For SC the proto letter is forced to 'O' (fixed simple handlers).
     * Results are cached by (app, protocol, config).
     */
    const ExperimentResult &run(const AppInfo &app, ProtocolKind kind,
                                char comm_set, char proto_set);

    /** Run the Ideal (algorithmic limit) configuration. */
    const ExperimentResult &runIdeal(const AppInfo &app);

    const SweepOptions &options() const { return opts; }

    /**
     * Cache key for a (app, protocol, config) run (SC collapses onto
     * proto set 'O'). Public because the sweep server's shared-memory
     * memo cache and its BENCH report assembly key on the same strings
     * as the in-process cache (serve/server.hh).
     */
    static std::string resultKey(const AppInfo &app, ProtocolKind kind,
                                 char comm_set, char proto_set);
    /** Cache key for the Ideal run. */
    static std::string idealKey(const AppInfo &app);

    /** Visit every cached result in key order (for reports). */
    void forEachResult(
        const std::function<void(const std::string &key,
                                 const ExperimentResult &r)> &fn) const;

    /** Visit every cached baseline in app-name order. */
    void forEachBaseline(
        const std::function<void(const std::string &app, Cycles seq)> &fn)
        const;

  protected:
    /** True if @p key is already cached. */
    bool cached(const std::string &key) const;
    /** True if @p app's baseline is already cached. */
    bool baselineCached(const std::string &app) const;

  private:
    const ExperimentResult &runWithKey(const std::string &key,
                                       const AppInfo &app,
                                       const ExperimentConfig &cfg);

    SweepOptions opts;
    mutable std::mutex mu;
    std::map<std::string, Cycles> baselines;
    std::map<std::string, ExperimentResult> cache;
};

/** The paper's main Figure 3 configuration list (comm, proto) pairs. */
std::vector<std::pair<char, char>> figure3Configs(bool full);

/**
 * One experiment of a named grid: either the Ideal run for @p app or a
 * (protocol, comm set, proto set) configuration.
 */
struct GridItem
{
    AppInfo app;
    bool ideal = false;
    ProtocolKind kind = ProtocolKind::Hlrc;
    char commSet = 'A';
    char protoSet = 'O';
};

/**
 * The full Figure 3 experiment grid for @p opts (apps x Ideal +
 * {HLRC, SC} x configurations, SC restricted to the O/B cost sets as
 * in the paper). Shared by bench_fig3 and the sweep server so a grid
 * served from the memo cache is the exact experiment set the batch
 * binary runs.
 */
std::vector<GridItem> figure3Grid(const SweepOptions &opts);

} // namespace swsm

#endif // SWSM_HARNESS_SWEEP_HH
