#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>

#include "harness/memo.hh"
#include "sim/env.hh"
#include "sim/log.hh"
#include "sim/pdes.hh"

namespace swsm
{

const char *
sizeClassName(SizeClass size)
{
    switch (size) {
      case SizeClass::Tiny:
        return "tiny";
      case SizeClass::Small:
        return "small";
      case SizeClass::Medium:
        return "medium";
      case SizeClass::Paper:
        return "paper";
    }
    return "unknown";
}

bool
parseSizeClass(std::string_view name, SizeClass &out)
{
    if (name == "tiny") {
        out = SizeClass::Tiny;
    } else if (name == "small") {
        out = SizeClass::Small;
    } else if (name == "medium") {
        out = SizeClass::Medium;
    } else if (name == "paper") {
        out = SizeClass::Paper;
    } else {
        return false;
    }
    return true;
}

bool
parseProcs(std::string_view text, int &out)
{
    int procs = 0;
    if (!parseBoundedInt(text, 1, std::numeric_limits<int>::max(), procs) ||
        procs > maxProcs)
        return false;
    out = procs;
    return true;
}

bool
parseProtocol(std::string_view name, ProtocolKind &out)
{
    if (name == "hlrc") {
        out = ProtocolKind::Hlrc;
    } else if (name == "sc") {
        out = ProtocolKind::Sc;
    } else if (name == "ideal") {
        out = ProtocolKind::Ideal;
    } else {
        return false;
    }
    return true;
}

bool
validCommSet(std::string_view name)
{
    return name.size() == 1 &&
        std::string_view("AHBWX").find(name[0]) != std::string_view::npos;
}

bool
validProtoSet(std::string_view name)
{
    return name.size() == 1 &&
        std::string_view("OHB").find(name[0]) != std::string_view::npos;
}

bool
parseAppList(std::string_view list, std::vector<std::string> &out,
             std::string &err)
{
    std::vector<std::string> apps;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = list.find(',', pos);
        std::string name(list.substr(
            pos, comma == std::string_view::npos ? comma : comma - pos));
        if (name.empty()) {
            err = "empty app name in \"" + std::string(list) + "\"";
            return false;
        }
        if (!lookupApp(name)) {
            err = "unknown app \"" + name + "\"";
            return false;
        }
        apps.push_back(std::move(name));
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    out = std::move(apps);
    return true;
}

int
defaultJobs()
{
    // 0 is below the minimum, so it doubles as the "unset" sentinel.
    const int n = envBoundedInt("SWSM_JOBS", 1, maxJobs, 0);
    if (n > 0)
        return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

namespace
{

void
printUsage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--quick|--medium|--size=CLASS] "
                 "[--full] [--procs=N] [--apps=a,b,...] "
                 "[--jobs=N] [--sim-threads=N] [--trace=FILE] "
                 "[--memo=DIR]\n"
                 "  --size=CLASS  problem size: tiny, small, "
                 "medium or paper (the paper's published "
                 "sizes); --quick and --medium are shorthands\n"
                 "  --apps=LIST   comma-separated registry names, "
                 "e.g. fft,lu (default: the whole suite)\n"
                 "  --jobs=N      worker threads for the sweep "
                 "(default: SWSM_JOBS or hardware concurrency)\n"
                 "  --sim-threads=N  worker threads inside each "
                 "simulation (parallel event kernel; results "
                 "are bit-identical to serial; default: "
                 "SWSM_SIM_THREADS or 1)\n"
                 "  --trace=FILE  write a Chrome trace_event "
                 "JSON of every experiment (chrome://tracing)\n"
                 "  --memo=DIR    replay the grid experiments and "
                 "baselines stored in DIR and store the ones "
                 "simulated (not with --trace)\n",
                 prog);
}

/**
 * The configuration @p item runs under @p opts: the one mapping from a
 * grid item to machine settings. SC's proto set is forced to 'O'
 * (fixed simple handlers).
 */
ExperimentConfig
gridConfig(const GridItem &item, const SweepOptions &opts)
{
    ExperimentConfig cfg;
    cfg.protocol = item.ideal ? ProtocolKind::Ideal : item.kind;
    cfg.numProcs = opts.numProcs;
    cfg.trace = !opts.tracePath.empty();
    cfg.simThreads = opts.simThreads;
    if (!item.ideal) {
        cfg.commSet = item.commSet;
        // SC handlers are fixed; no protocol variants
        cfg.protoSet =
            item.kind == ProtocolKind::Sc ? 'O' : item.protoSet;
        cfg.blockBytes = item.app.scBlockBytes;
    }
    return cfg;
}

} // namespace

bool
SweepOptions::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            size = SizeClass::Tiny;
        } else if (arg == "--medium") {
            size = SizeClass::Medium;
        } else if (arg.rfind("--size=", 0) == 0) {
            const std::string name = arg.substr(7);
            if (!parseSizeClass(name, size)) {
                std::fprintf(stderr,
                             "--size needs tiny|small|medium|paper, got "
                             "\"%s\"\n",
                             name.c_str());
                return false;
            }
        } else if (arg == "--full") {
            full = true;
        } else if (arg.rfind("--procs=", 0) == 0) {
            if (!parseProcs(arg.substr(8), numProcs)) {
                std::fprintf(stderr,
                             "--procs needs an integer in [1, %d] (SC's "
                             "sharer bitmask), got \"%s\"\n",
                             maxProcs, arg.c_str() + 8);
                printUsage(argv[0]);
                return false;
            }
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(7), 1, maxJobs, jobs)) {
                std::fprintf(stderr,
                             "--jobs needs an integer in [1, %d], got "
                             "\"%s\"\n",
                             maxJobs, arg.c_str() + 7);
                return false;
            }
        } else if (arg.rfind("--sim-threads=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(14), 1,
                                 PdesEngine::maxPartitions, simThreads)) {
                std::fprintf(stderr,
                             "--sim-threads needs an integer in [1, %d], "
                             "got \"%s\"\n",
                             PdesEngine::maxPartitions,
                             arg.c_str() + 14);
                return false;
            }
        } else if (arg.rfind("--trace=", 0) == 0) {
            tracePath = arg.substr(8);
            if (tracePath.empty()) {
                std::fprintf(stderr, "--trace needs a file path\n");
                return false;
            }
        } else if (arg.rfind("--memo=", 0) == 0) {
            memoDir = arg.substr(7);
            if (memoDir.empty()) {
                std::fprintf(stderr, "--memo needs a directory path\n");
                return false;
            }
        } else if (arg.rfind("--apps=", 0) == 0) {
            std::string err;
            if (!parseAppList(std::string_view(arg).substr(7), apps,
                              err)) {
                std::string known;
                for (const AppInfo &app : appRegistry())
                    known += (known.empty() ? "" : ",") + app.name;
                std::fprintf(stderr, "--apps: %s; known: %s\n",
                             err.c_str(), known.c_str());
                printUsage(argv[0]);
                return false;
            }
        } else {
            printUsage(argv[0]);
            return false;
        }
    }
    if (!memoDir.empty()) {
        if (!tracePath.empty()) {
            std::fprintf(stderr, "--memo cannot be combined with --trace: "
                                 "a replayed experiment has no trace\n");
            return false;
        }
        std::error_code ec;
        std::filesystem::create_directories(memoDir, ec);
        if (ec || !std::filesystem::is_directory(memoDir)) {
            std::fprintf(stderr,
                         "--memo: cannot use \"%s\" as a directory%s%s\n",
                         memoDir.c_str(), ec ? ": " : "",
                         ec ? ec.message().c_str() : "");
            return false;
        }
    }
    return true;
}

std::vector<AppInfo>
SweepOptions::selectedApps() const
{
    if (apps.empty())
        return appRegistry();
    std::vector<AppInfo> out;
    for (const std::string &name : apps)
        out.push_back(findApp(name));
    return out;
}

void
parallelFor(int jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(n);
    const auto runOne = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    const std::size_t threads =
        std::min(n, static_cast<std::size_t>(std::max(jobs, 1)));
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
            pool.emplace_back([&] {
                for (std::size_t i = next++; i < n; i = next++)
                    runOne(i);
            });
        }
    } // the jthreads join here
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

void
SweepRunner::plan(const AppInfo &app, ProtocolKind kind, char comm_set,
                  char proto_set)
{
    const ExperimentConfig cfg =
        gridConfig(GridItem{app, false, kind, comm_set, proto_set}, opts);
    add(app, resultKey(app, kind, comm_set, proto_set),
        cfg.machineParams(), cfg.name(), true);
}

void
SweepRunner::planIdeal(const AppInfo &app)
{
    const ExperimentConfig cfg =
        gridConfig(GridItem{app, true, ProtocolKind::Ideal, 0, 0}, opts);
    add(app, idealKey(app), cfg.machineParams(), cfg.name(), true);
}

void
SweepRunner::plan(const AppInfo &app, const std::string &key,
                  MachineParams mp, const std::string &config)
{
    add(app, key, std::move(mp), config, false);
}

void
SweepRunner::add(const AppInfo &app, const std::string &key,
                 MachineParams mp, const std::string &config, bool grid)
{
    if (results.count(key) || !plannedKeys.insert(key).second)
        return;
    mp.simThreads = opts.simThreads;
    mp.trace = !opts.tracePath.empty();
    planned.push_back(Planned{app, key, std::move(mp), config, grid});
}

void
SweepRunner::runPlanned()
{
    const std::string &dir = opts.memoDir;
    if (!dir.empty() && !opts.tracePath.empty())
        SWSM_FATAL("a memoized sweep cannot trace: a replayed experiment "
                   "has no trace");
    const std::vector<Planned> todo = std::exchange(planned, {});
    plannedKeys.clear();

    std::vector<AppInfo> apps;
    for (const Planned &p : todo) {
        const auto same = [&](const AppInfo &a) {
            return a.name == p.app.name;
        };
        if (!baselines.count(p.app.name) &&
            std::none_of(apps.begin(), apps.end(), same))
            apps.push_back(p.app);
    }

    // Task i < nb is apps[i]'s baseline, task nb + j runs todo[j]. A
    // baseline is a 1-node run, so its memo key has no procs.
    const std::size_t nb = apps.size();
    std::vector<Cycles> seqs(nb);
    std::vector<ExperimentResult> out(todo.size());
    const std::string size = sizeClassName(opts.size);
    const auto memoKey = [&](std::size_t i) {
        return i < nb ? size + "/baseline/" + apps[i].name
                      : size + "/p" + std::to_string(opts.numProcs) +
                            "/" + todo[i - nb].key;
    };
    const auto replay = [&](std::size_t i) {
        std::string blob;
        if (dir.empty() || !memo::load(dir, memoKey(i), blob))
            return false;
        return i < nb ? memo::decodeBaseline(blob, seqs[i])
                      : memo::decodeResult(blob, out[i - nb]);
    };

    // Replay what the memo holds; the rest is the work list.
    std::vector<std::size_t> work;
    std::size_t custom = 0;
    for (std::size_t i = 0; i < nb + todo.size(); ++i) {
        const bool grid = i < nb || todo[i - nb].grid;
        custom += !grid;
        if (!grid || !replay(i))
            work.push_back(i);
    }

    parallelFor(opts.jobs, work.size(), [&](std::size_t k) {
        const std::size_t i = work[k];
        if (i < nb) {
            bool verified = false;
            seqs[i] =
                runSequentialBaseline(apps[i].factory, opts.size, &verified);
            if (!dir.empty() && verified)
                memo::store(dir, memoKey(i), memo::encodeBaseline(seqs[i]));
            return;
        }
        const Planned &p = todo[i - nb];
        ExperimentResult &r = out[i - nb];
        r = runExperiment(p.app.factory, opts.size, p.mp, p.config, 0);
        if (!dir.empty() && p.grid && r.verified)
            memo::store(dir, memoKey(i), memo::encodeResult(r));
    });

    for (std::size_t i = 0; i < nb; ++i)
        baselines.emplace(apps[i].name, seqs[i]);
    for (std::size_t i = 0; i < todo.size(); ++i) {
        out[i].sequentialCycles = baselines.at(todo[i].app.name);
        results.emplace(todo[i].key, std::move(out[i]));
    }
    if (!dir.empty()) {
        std::fprintf(stderr, "memo %s: %zu replayed, %zu simulated",
                     dir.c_str(), nb + todo.size() - work.size(),
                     work.size());
        if (custom)
            std::fprintf(stderr, " (%zu custom, never memoized)", custom);
        std::fprintf(stderr, "\n");
    }
}

Cycles
SweepRunner::baseline(const AppInfo &app) const
{
    auto it = baselines.find(app.name);
    if (it == baselines.end())
        SWSM_FATAL("no sequential baseline for '%s': no experiment of it "
                   "was planned and run",
                   app.name.c_str());
    return it->second;
}

std::string
SweepRunner::resultKey(const AppInfo &app, ProtocolKind kind,
                       char comm_set, char proto_set)
{
    if (kind == ProtocolKind::Sc)
        proto_set = 'O'; // SC handlers are fixed; no protocol variants
    return app.name + "/" + protocolKindName(kind) + "/" + comm_set +
           proto_set;
}

std::string
SweepRunner::idealKey(const AppInfo &app)
{
    return app.name + "/ideal";
}

const ExperimentResult &
SweepRunner::result(const std::string &key) const
{
    auto it = results.find(key);
    if (it == results.end())
        SWSM_FATAL("experiment '%s' was not planned and run before being "
                   "read",
                   key.c_str());
    return it->second;
}

const ExperimentResult &
SweepRunner::run(const AppInfo &app, ProtocolKind kind, char comm_set,
                 char proto_set) const
{
    return result(resultKey(app, kind, comm_set, proto_set));
}

const ExperimentResult &
SweepRunner::runIdeal(const AppInfo &app) const
{
    return result(idealKey(app));
}

void
SweepRunner::forEachResult(
    const std::function<void(const std::string &, const ExperimentResult &)>
        &fn) const
{
    for (const auto &[key, r] : results)
        fn(key, r);
}

void
SweepRunner::forEachBaseline(
    const std::function<void(const std::string &, Cycles)> &fn) const
{
    for (const auto &[app, seq] : baselines)
        fn(app, seq);
}

std::vector<std::pair<char, char>>
figure3Configs(bool full)
{
    // Order follows the paper's bar arrangement: better-than-best down
    // to worse, with the base (AO) emphasized in the middle.
    std::vector<std::pair<char, char>> configs = {
        {'X', 'B'}, {'B', 'B'}, {'B', 'O'}, {'A', 'B'},
        {'A', 'O'}, {'W', 'O'},
    };
    if (full) {
        configs.push_back({'A', 'H'});
        configs.push_back({'H', 'O'});
        configs.push_back({'H', 'B'});
        configs.push_back({'B', 'H'});
        configs.push_back({'H', 'H'});
    }
    return configs;
}

std::vector<GridItem>
figure3Grid(const SweepOptions &opts)
{
    std::vector<GridItem> grid;
    const auto configs = figure3Configs(opts.full);
    for (const AppInfo &app : opts.selectedApps()) {
        grid.push_back(GridItem{app, true, ProtocolKind::Ideal, 0, 0});
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            for (const auto &[c, p] : configs) {
                if (kind == ProtocolKind::Sc && p != 'O' && p != 'B')
                    continue;
                grid.push_back(GridItem{app, false, kind, c, p});
            }
        }
    }
    return grid;
}

} // namespace swsm
