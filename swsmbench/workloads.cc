/**
 * @file
 * The benchmark's workloads, and why each was chosen.
 *
 * Every workload is closed loop: a sweep worker starts its next
 * simulation only when its previous one finished. Every experiment
 * simulates 16 nodes on the serial event kernel with the library
 * defaults (fast path on, SIMD level detected at run time), so sweep
 * workers are the only parallelism.
 *
 * The two paper-size workloads use the same layers differently. On the
 * network one sends few 4 KB pages and the other many 64 B-1 KB blocks;
 * in the cache model one walks page ranges and the other makes
 * single-line accesses. barnes is left out at paper size because one
 * run takes minutes.
 *
 * Deliberately not measured:
 *  - the sweep server's memo replay (a warm fig3-Small replay takes
 *    0.09 s); it joins once the memo is on the batch path;
 *  - fiber switches and per-layer self time inside Cluster::run, which
 *    need spans inside the simulator;
 *  - the partitioned event kernel, which runs slower than serial on
 *    4-core hosts.
 */

#include <algorithm>
#include <random>
#include <utility>

#include "bench.hh"
#include "harness/sweep.hh"

namespace swsmbench
{

namespace
{

using swsm::AppInfo;
using swsm::ProtocolKind;
/** (communication set, protocol cost set), as in figure3Configs. */
using Config = std::pair<char, char>;

Task
baselineTask(const AppInfo &app)
{
    Task t;
    t.key = app.name + "/baseline";
    t.app = app;
    t.baseline = true;
    return t;
}

/**
 * One 16-node experiment on the serial event kernel, configured the way
 * SweepRunner configures the figure binaries' experiments.
 */
Task
experimentTask(const AppInfo &app, ProtocolKind kind, Config config)
{
    Task t;
    t.app = app;
    t.config.protocol = kind;
    t.config.numProcs = 16;
    t.config.simThreads = 1;
    if (kind == ProtocolKind::Ideal) {
        t.key = swsm::SweepRunner::idealKey(app);
        return t;
    }
    // SC's handler costs are fixed, so every cost set runs as O.
    t.config.commSet = config.first;
    t.config.protoSet = kind == ProtocolKind::Sc ? 'O' : config.second;
    t.config.blockBytes = app.scBlockBytes;
    t.key = swsm::SweepRunner::resultKey(app, kind, t.config.commSet,
                                         t.config.protoSet);
    return t;
}

/** Append @p t unless its key is there already (SC cost sets collapse). */
void
addExperiment(std::vector<Task> &tasks, Task t)
{
    const bool seen =
        std::any_of(tasks.begin(), tasks.end(),
                    [&t](const Task &have) { return have.key == t.key; });
    if (!seen)
        tasks.push_back(std::move(t));
}

/** SC runs only the O and B cost sets, as in figure3Grid. */
bool
runsUnder(ProtocolKind kind, Config c)
{
    return kind != ProtocolKind::Sc || c.second == 'O' || c.second == 'B';
}

/** The halfway configurations: figure3Configs(true) minus Figure 3's. */
std::vector<Config>
halfwayConfigs()
{
    const std::vector<Config> figure = swsm::figure3Configs(false);
    std::vector<Config> out;
    for (const Config &c : swsm::figure3Configs(true)) {
        if (std::find(figure.begin(), figure.end(), c) == figure.end())
            out.push_back(c);
    }
    return out;
}

/** The Figure 3 grid: baselines first, then experiments in grid order. */
std::vector<Task>
figure3Tasks(swsm::SizeClass size, bool heldout)
{
    swsm::SweepOptions opts;
    opts.size = size;
    opts.full = heldout;
    const std::vector<Config> figure = swsm::figure3Configs(false);
    std::vector<Task> tasks;
    for (const AppInfo &app : opts.selectedApps())
        tasks.push_back(baselineTask(app));
    for (const swsm::GridItem &item : swsm::figure3Grid(opts)) {
        const Config c{item.commSet, item.protoSet};
        const bool in_figure =
            std::find(figure.begin(), figure.end(), c) != figure.end();
        if (heldout && (item.ideal || in_figure))
            continue;
        addExperiment(tasks,
                      experimentTask(item.app,
                                     item.ideal ? ProtocolKind::Ideal
                                                : item.kind,
                                     c));
    }
    return tasks;
}

/**
 * Each app's baseline and its experiments under @p kinds x @p configs,
 * in an order drawn from @p seed. Every experiment starts from a fresh
 * machine, so the order changes no simulated result.
 */
std::vector<Task>
shuffledTasks(const std::vector<std::string> &apps,
              const std::vector<ProtocolKind> &kinds,
              const std::vector<Config> &configs, std::uint64_t seed)
{
    std::vector<Task> tasks;
    for (const std::string &name : apps) {
        const AppInfo &app = swsm::findApp(name);
        tasks.push_back(baselineTask(app));
        for (const ProtocolKind kind : kinds) {
            for (const Config &c : configs) {
                if (runsUnder(kind, c))
                    addExperiment(tasks, experimentTask(app, kind, c));
            }
        }
    }
    std::mt19937_64 rng(seed);
    for (std::size_t i = tasks.size(); i > 1; --i)
        std::swap(tasks[i - 1], tasks[rng() % i]);
    return tasks;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig3-small", "hlrc-paper", "sc-paper", "smoke"};
    return names;
}

bool
makeWorkload(const std::string &name, bool heldout, std::uint64_t seed,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "fig3-small") {
        // The paper's Figure 3 grid at Small size on 4 sweep workers:
        // 13 apps x {Ideal, HLRC XB/BB/BO/AB/AO/WO, SC XO/BO/AO/WO},
        // 143 experiments plus 13 baselines. Held out: HLRC
        // AH/HO/HB/BH/HH and SC HO, 78 experiments.
        //
        // Why: this is the grid users regenerate, and the only workload
        // where the harness schedules simulations concurrently. barnes
        // and barnes-spatial take about two thirds of its host time, so
        // app compute and the SC message path dominate it. Its tail is
        // the barnes-spatial SC runs, which the grid order plans last.
        out.size = swsm::SizeClass::Small;
        out.workers = 4;
        out.tasks = figure3Tasks(out.size, heldout);
    } else if (name == "hlrc-paper") {
        // HLRC at paper size on radix, fft, water-nsq, volrend and
        // raytrace, each under AO/BO/BB/XB, serially: 20 experiments
        // plus 5 baselines. Held out: AH/HO/HB/BH/HH, 25 experiments.
        //
        // Why: the page-grained path. It covers the twin, diff and
        // apply kernels, 4 KB page fetches, and the cache model's
        // twin/diff pollution walks. AO/BO charge those walks and BB/XB
        // skip them, so the mix measures both sides.
        out.size = swsm::SizeClass::Paper;
        out.tasks = shuffledTasks(
            {"radix", "fft", "water-nsq", "volrend", "raytrace"},
            {ProtocolKind::Hlrc},
            heldout ? halfwayConfigs()
                    : std::vector<Config>{{'A', 'O'}, {'B', 'O'},
                                          {'B', 'B'}, {'X', 'B'}},
            seed);
    } else if (name == "sc-paper") {
        // SC at paper size with each app's best block size (64 B, or
        // 1 KB for ocean) on radix, radix-local, water-nsq and ocean,
        // each under AO/BO, serially: 8 experiments plus 4 baselines.
        // Held out: HO, the one halfway set SC runs, 4 experiments.
        //
        // Why: the fine-grained message path. Many small messages
        // against few cache accesses: the event kernel, net/comm and
        // the SC directory do most of the work, and twins and diffs do
        // none.
        out.size = swsm::SizeClass::Paper;
        out.tasks = shuffledTasks(
            {"radix", "radix-local", "water-nsq", "ocean"},
            {ProtocolKind::Sc},
            heldout ? halfwayConfigs()
                    : std::vector<Config>{{'A', 'O'}, {'B', 'O'}},
            seed);
    } else if (name == "smoke") {
        // Not a benchmark workload: a Tiny grid of about a second for
        // the benchmark's own tests, on two workers so the concurrent
        // path runs too.
        out.size = swsm::SizeClass::Tiny;
        out.workers = 2;
        out.tasks = shuffledTasks(
            {"fft", "radix"}, {ProtocolKind::Hlrc, ProtocolKind::Sc},
            heldout ? halfwayConfigs() : std::vector<Config>{{'A', 'O'}},
            seed);
    } else {
        return false;
    }
    return true;
}

} // namespace swsmbench
