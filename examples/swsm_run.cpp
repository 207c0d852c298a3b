/**
 * @file
 * General-purpose command-line runner: simulate any registered
 * application under any configuration and print the full report
 * (speedup, per-processor breakdowns, protocol and network counters).
 *
 *   ./build/examples/swsm_run --app=radix --proto=hlrc --config=AO \
 *       [--procs=16] [--size=tiny|small|medium|paper] [--block=64] \
 *       [--jobs=N] [--trace=FILE]
 *
 * Unknown applications, protocols, configurations and sizes, a
 * cluster above 32 nodes, a block size that is not a power of two from
 * a word (4 bytes) to a page (4096 bytes) and an empty --trace print
 * the usage text and exit 1.
 *
 * Runs through the sweep runner: the experiment and its sequential
 * baseline are two independent tasks, so --jobs=2 runs them at once.
 *
 * The report on stdout is deterministic. A last line on stderr says
 * what the run cost the host: its seconds, the events it ran and the
 * host nanoseconds per event, and the fraction of shared references
 * that the inline access check resolved without calling the protocol.
 */

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "apps/app_registry.hh"
#include "harness/sweep.hh"

namespace
{

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --app=NAME [--proto=hlrc|sc|ideal] "
                 "[--config=XY] [--procs=N]\n"
                 "          [--size=tiny|small|medium|paper] "
                 "[--block=BYTES] [--jobs=N] [--trace=FILE]\n"
                 "  --config=XY  communication set X (A H B W X) and "
                 "protocol cost set Y (O H B)\n"
                 "  --procs=N    cluster size, 1 to %d\n"
                 "  --block=BYTES  coherence block size, a power of two "
                 "from %u to %u (a page)\n"
                 "applications:\n",
                 prog, swsm::maxProcs, swsm::wordBytes,
                 swsm::MachineParams{}.pageBytes);
    for (const swsm::AppInfo &app : swsm::appRegistry())
        std::fprintf(stderr, "  %-16s (%s)\n", app.name.c_str(),
                     app.paperSize.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    std::string app_name;
    ProtocolKind kind = ProtocolKind::Hlrc;
    std::string config = "AO";
    SizeClass size = SizeClass::Small;
    std::string trace_path;
    int procs = 16;
    int block = 0;
    int jobs = defaultJobs();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *key) -> const char * {
            const std::size_t len = std::strlen(key);
            return arg.rfind(key, 0) == 0 ? arg.c_str() + len : nullptr;
        };
        bool ok = true;
        if (const char *v = value("--app="))
            app_name = v;
        else if (const char *v = value("--proto="))
            ok = parseProtocol(v, kind);
        else if (const char *v = value("--config="))
            ok = config.assign(v).size() == 2 &&
                validCommSet(config.substr(0, 1)) &&
                validProtoSet(config.substr(1));
        else if (const char *v = value("--size="))
            ok = parseSizeClass(v, size);
        else if (const char *v = value("--procs="))
            ok = parseProcs(v, procs);
        else if (const char *v = value("--block="))
            ok = parseBoundedInt(v, swsm::wordBytes,
                                 MachineParams{}.pageBytes, block) &&
                std::has_single_bit(static_cast<unsigned>(block));
        else if (const char *v = value("--jobs="))
            ok = parseBoundedInt(v, 1, maxJobs, jobs);
        else if (const char *v = value("--trace="))
            ok = !trace_path.assign(v).empty();
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "invalid argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }
    const AppInfo *found = lookupApp(app_name);
    if (!found) {
        if (!app_name.empty())
            std::fprintf(stderr, "unknown application: %s\n",
                         app_name.c_str());
        usage(argv[0]);
        return 1;
    }
    const AppInfo &app = *found;

    ExperimentConfig cfg;
    cfg.protocol = kind;
    cfg.commSet = config[0];
    cfg.protoSet = config[1];
    cfg.numProcs = procs;
    cfg.blockBytes =
        block ? static_cast<std::uint32_t>(block) : app.scBlockBytes;

    std::printf("%s on %d-proc %s cluster, config %s, size %s\n",
                app.name.c_str(), procs, protocolKindName(cfg.protocol),
                cfg.name().c_str(), sizeClassName(size));

    SweepOptions opts;
    opts.size = size;
    opts.numProcs = procs;
    opts.apps = {app.name};
    opts.jobs = jobs;
    opts.tracePath = trace_path;
    SweepRunner runner(opts);
    runner.plan(app, app.name + "/run", cfg.machineParams(), cfg.name());
    runner.runPlanned();

    const Cycles seq = runner.baseline(app);
    const ExperimentResult &r = runner.result(app.name + "/run");

    std::printf("\nsequential: %.2f Mcycles   parallel: %.2f Mcycles   "
                "speedup: %.2f   verified: %s\n",
                seq / 1e6, r.parallelCycles / 1e6, r.speedup(),
                r.verified ? "yes" : "NO");

    std::printf("\nper-processor average breakdown (Mcycles):\n");
    for (int b = 0; b < numTimeBuckets; ++b) {
        const auto bucket = static_cast<TimeBucket>(b);
        std::printf("  %-14s %10.3f  (%4.1f%%)\n", timeBucketName(bucket),
                    r.stats.avgBucket(bucket) / 1e6,
                    100.0 * r.stats.bucketFraction(bucket));
    }

    const MetricsSnapshot &m = r.stats.metrics;
    std::printf("\nprotocol events:\n");
    for (const auto &[label, name] :
         {std::pair{"read faults", "proto.read_faults"},
          {"write faults", "proto.write_faults"},
          {"data fetches", "proto.page_fetches"},
          {"diffs created", "proto.diffs_created"},
          {"invalidations", "proto.invalidations"},
          {"lock handoffs", "proto.lock_handoffs"},
          {"handlers run", "proto.handlers_run"}})
        std::printf("  %-14s %10llu\n", label,
                    static_cast<unsigned long long>(m.counter(name)));
    std::printf("\nnetwork: %llu messages, %.2f MB\n",
                static_cast<unsigned long long>(m.counter("net.messages")),
                m.counter("net.bytes") / 1e6);

    // Host cost, on stderr: it differs from run to run.
    const std::uint64_t events = m.counter("sim.events_run");
    const std::uint64_t hits = m.counter("machine.fastpath_hits");
    const std::uint64_t refs = hits + m.counter("machine.fastpath_misses");
    std::fprintf(stderr,
                 "host: %.3f s, %llu events (%.1f ns/event), inline "
                 "access hits %.1f%% of %llu references\n",
                 r.hostSeconds, static_cast<unsigned long long>(events),
                 events ? r.hostSeconds * 1e9 / events : 0.0,
                 refs ? 100.0 * hits / refs : 0.0,
                 static_cast<unsigned long long>(refs));

    if (!trace_path.empty()) {
        if (r.trace &&
            writeChromeTrace(trace_path, app.name + "/run", *r.trace))
            std::printf("\ntrace: %s (%zu events; open in "
                        "chrome://tracing)\n",
                        trace_path.c_str(), r.trace->events.size());
        else
            std::fprintf(stderr, "cannot write trace %s\n",
                         trace_path.c_str());
    }
    return r.verified ? 0 : 1;
}
