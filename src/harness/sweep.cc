#include "sweep.hh"

#include <algorithm>
#include <cstdio>
#include <thread>

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
                 "[--jobs=N] [--sim-threads=N] [--trace=FILE]\n"
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
                 "JSON of every experiment (chrome://tracing)\n",
                 prog);
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
            if (!parseBoundedInt(arg.substr(8), 1, maxProcs, numProcs)) {
                std::fprintf(stderr,
                             "--procs needs an integer in [1, %d], got "
                             "\"%s\"\n",
                             maxProcs, arg.c_str() + 8);
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

Cycles
SweepRunner::baseline(const AppInfo &app)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = baselines.find(app.name);
        if (it != baselines.end())
            return it->second;
    }
    const Cycles seq = runSequentialBaseline(app.factory, opts.size);
    std::lock_guard<std::mutex> lock(mu);
    return baselines.emplace(app.name, seq).first->second;
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

bool
SweepRunner::cached(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.find(key) != cache.end();
}

bool
SweepRunner::baselineCached(const std::string &app) const
{
    std::lock_guard<std::mutex> lock(mu);
    return baselines.find(app) != baselines.end();
}

const ExperimentResult &
SweepRunner::runWithKey(const std::string &key, const AppInfo &app,
                        const ExperimentConfig &cfg)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    ExperimentResult r =
        runExperiment(app.factory, opts.size, cfg, baseline(app));
    if (!r.verified)
        SWSM_WARN("%s failed verification under %s", key.c_str(),
                  cfg.name().c_str());
    // If another thread raced us here, emplace keeps its (identical,
    // deterministic) result and ours is discarded.
    std::lock_guard<std::mutex> lock(mu);
    return cache.emplace(key, std::move(r)).first->second;
}

const ExperimentResult &
SweepRunner::run(const AppInfo &app, ProtocolKind kind, char comm_set,
                 char proto_set)
{
    if (kind == ProtocolKind::Sc)
        proto_set = 'O';
    ExperimentConfig cfg;
    cfg.protocol = kind;
    cfg.commSet = comm_set;
    cfg.protoSet = proto_set;
    cfg.numProcs = opts.numProcs;
    cfg.blockBytes = app.scBlockBytes;
    cfg.trace = !opts.tracePath.empty();
    cfg.simThreads = opts.simThreads;
    return runWithKey(resultKey(app, kind, comm_set, proto_set), app, cfg);
}

const ExperimentResult &
SweepRunner::runIdeal(const AppInfo &app)
{
    ExperimentConfig cfg;
    cfg.protocol = ProtocolKind::Ideal;
    cfg.numProcs = opts.numProcs;
    cfg.trace = !opts.tracePath.empty();
    cfg.simThreads = opts.simThreads;
    return runWithKey(idealKey(app), app, cfg);
}

void
SweepRunner::forEachResult(
    const std::function<void(const std::string &, const ExperimentResult &)>
        &fn) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[key, r] : cache)
        fn(key, r);
}

void
SweepRunner::forEachBaseline(
    const std::function<void(const std::string &, Cycles)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu);
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
