/**
 * @file
 * Sweep driver shared by the table/figure benchmark binaries.
 *
 * Runs (workload x configuration) grids with per-app sequential
 * baselines, simple command-line options, and the paper's configuration
 * naming (comm set A/H/B/W/X x protocol set O/H/B; SC runs protocol
 * cost variants are meaningless and always use O with its fixed simple
 * handler cost, as in the paper).
 *
 * Every experiment of a grid is an independent simulation: a baseline
 * is only the denominator of its app's speedups, stamped into the
 * results after they run. So a grid is one flat list of tasks,
 * baselines first, executed by parallelFor; each simulation runs
 * confined to the one thread that executes it. With --memo=DIR the
 * runner first replays every grid experiment and baseline that an
 * earlier run left in DIR (harness/memo.hh) and simulates only the
 * rest.
 */

#ifndef SWSM_HARNESS_SWEEP_HH
#define SWSM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
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

/**
 * Largest cluster size the option parsers accept: SC's directory keeps
 * each block's sharers in a 32-bit mask. Larger values are rejected,
 * never clamped.
 */
constexpr int maxProcs = 32;
/** Largest worker count the option parser accepts (clamped above). */
constexpr int maxJobs = 1024;

/** Lower-case size-class name ("tiny", ..., "paper"). */
const char *sizeClassName(SizeClass size);

/** Parse a size-class name; false (out untouched) on unknown names. */
bool parseSizeClass(std::string_view name, SizeClass &out);

/**
 * Parse a cluster size in [1, maxProcs]; false (out untouched) on
 * anything else, including values above maxProcs.
 */
bool parseProcs(std::string_view text, int &out);

/**
 * Parse a protocol name (hlrc, sc or ideal), the grammar of swsm_run's
 * --proto; false (out untouched) on unknown names.
 */
bool parseProtocol(std::string_view name, ProtocolKind &out);

/** True if @p name is one communication set letter: A, H, B, W or X. */
bool validCommSet(std::string_view name);

/** True if @p name is one protocol cost set letter: O, H or B. */
bool validProtoSet(std::string_view name);

/**
 * Parse a comma-separated list of registry app names ("fft,lu"), the
 * grammar of --apps.
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
     * Memo directory of finished experiments (empty = off): grid
     * experiments and baselines found there are replayed instead of
     * simulated, and the ones simulated are stored there.
     */
    std::string memoDir;

    /**
     * Parse --quick/--medium/--size=CLASS, --procs=N, --apps=a,b,c,
     * --full, --jobs=N, --sim-threads=N, --trace=FILE, --memo=DIR.
     * --memo creates DIR if needed; it rejects an empty path, a path
     * that is not and cannot be made a directory, and --trace (a
     * replay has no trace).
     * @return false (after printing usage) on unknown or invalid
     *         arguments
     */
    bool parse(int argc, char **argv);

    /** Apps to run: the selection or the whole registry. */
    std::vector<AppInfo> selectedApps() const;
};

/**
 * Run fn(0), ..., fn(n - 1), each index once, on up to @p jobs threads
 * that claim indices in increasing order: by the time a thread takes
 * index i, every lower index has been taken by a running thread, so
 * fn(i) may wait for the work of a lower index that waits on nothing.
 * With jobs <= 1 the calls run inline, in index order, on the calling
 * thread. Every index runs even if some throw; then the exception of
 * the lowest failing index is rethrown.
 */
void parallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Plans a sweep's experiments, runs them, and serves their results.
 *
 * Usage is two-phase: plan() every experiment, runPlanned(), then read
 * the results back in print order. Each experiment is an isolated
 * simulation, so results are bit-identical for any job count and the
 * printed output of --jobs=N matches --jobs=1 byte for byte. The
 * lookups are read-only: reading a key that was not planned and run is
 * a fatal error. Returned references stay valid for the runner's
 * lifetime.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepOptions &opts) : opts(opts) {}

    /**
     * Plan @p app under protocol @p kind with comm/proto set letters.
     * For SC the proto letter is forced to 'O' (fixed simple handlers).
     */
    void plan(const AppInfo &app, ProtocolKind kind, char comm_set,
              char proto_set);

    /** Plan the Ideal (algorithmic limit) run for @p app. */
    void planIdeal(const AppInfo &app);

    /**
     * Plan @p app on custom machine parameters (ablations, single
     * parameter and scaling sweeps) under @p key, labelled @p config.
     * Like every other experiment it takes its simThreads and tracing
     * from the options, overriding those fields of @p mp. A custom key
     * does not fix @p mp, so a custom point is never memoized.
     */
    void plan(const AppInfo &app, const std::string &key,
              MachineParams mp, const std::string &config);

    /**
     * Run the planned experiments and the sequential baseline of each
     * planned app not yet measured, as independent tasks (baselines
     * first) on options().jobs threads; then stamp each result's
     * sequentialCycles. Keys already run are not planned again, so
     * plan/runPlanned may repeat.
     *
     * With options().memoDir set, every planned grid experiment, Ideal
     * run and baseline is first looked up in the memo and replayed on
     * a hit; the verified ones simulated are stored. A replay reports
     * the hostSeconds and host telemetry of the run that stored it.
     * Ends with one stderr line, "memo DIR: N replayed, M simulated".
     */
    void runPlanned();

    /** Sequential baseline cycles of an app with a run experiment. */
    Cycles baseline(const AppInfo &app) const;

    /** Result of a planned (app, protocol, config) experiment. */
    const ExperimentResult &run(const AppInfo &app, ProtocolKind kind,
                                char comm_set, char proto_set) const;

    /** Result of a planned Ideal run. */
    const ExperimentResult &runIdeal(const AppInfo &app) const;

    /** Result of the experiment planned under @p key. */
    const ExperimentResult &result(const std::string &key) const;

    const SweepOptions &options() const { return opts; }

    /**
     * Result key for a (app, protocol, config) run (SC collapses onto
     * proto set 'O'), "fft/hlrc/AO". The memo entry of a grid
     * experiment is "<size>/p<procs>/<key>", of a baseline
     * "<size>/baseline/<app>".
     */
    static std::string resultKey(const AppInfo &app, ProtocolKind kind,
                                 char comm_set, char proto_set);
    /** Result key for the Ideal run. */
    static std::string idealKey(const AppInfo &app);

    /** Visit every result in key order (for reports). */
    void forEachResult(
        const std::function<void(const std::string &key,
                                 const ExperimentResult &r)> &fn) const;

    /** Visit every baseline in app-name order. */
    void forEachBaseline(
        const std::function<void(const std::string &app, Cycles seq)> &fn)
        const;

  private:
    struct Planned
    {
        AppInfo app;
        std::string key;
        MachineParams mp;
        std::string config;
        /** A grid or Ideal key, which fixes mp: memoizable. */
        bool grid = false;
    };

    void add(const AppInfo &app, const std::string &key, MachineParams mp,
             const std::string &config, bool grid);

    SweepOptions opts;
    /** Planned since the last runPlanned(), in plan order. */
    std::vector<Planned> planned;
    std::set<std::string> plannedKeys;
    std::map<std::string, Cycles> baselines;
    std::map<std::string, ExperimentResult> results;
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
 * in the paper). Shared by bench_fig3 and the host-time benchmark.
 */
std::vector<GridItem> figure3Grid(const SweepOptions &opts);

} // namespace swsm

#endif // SWSM_HARNESS_SWEEP_HH
