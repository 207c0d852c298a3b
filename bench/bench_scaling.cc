/**
 * @file
 * Processor-count scaling (an extension beyond the paper's fixed
 * 16-node cluster): speedups at 2..32 processors on the base system
 * for both protocols. Exposes which applications' bottlenecks are
 * latency (flat curves), serialization (early saturation), or capacity
 * (superlinear cache regions).
 *
 * Every (app, protocol, procs) point is an independent simulation and
 * runs on the sweep runner (--jobs=N; --trace applies to every point);
 * BENCH_scaling.json records per-experiment wall-clock.
 */

#include <cstdio>
#include <string>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

namespace
{

using namespace swsm;

std::string
pointKey(const AppInfo &app, ProtocolKind kind, int procs)
{
    return app.name + "/" + protocolKindName(kind) + "/scaling/" +
           std::to_string(procs) + "p";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    if (opts.apps.empty())
        opts.apps = {"fft", "lu", "ocean-rowwise", "water-nsq",
                     "volrend-restr"};
    BenchReport report("scaling", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    const int counts[] = {2, 4, 8, 16, 32};

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            for (const int p : counts) {
                ExperimentConfig cfg;
                cfg.protocol = kind;
                cfg.numProcs = p;
                cfg.blockBytes = app.scBlockBytes;
                runner.plan(app, pointKey(app, kind, p),
                            cfg.machineParams(), cfg.name());
            }
        }
    }
    runner.runPlanned();

    std::printf("Scaling on the base (AO) system. Entries are "
                "speedups vs. 1 processor.\n\n");
    std::printf("%-16s %-5s", "Application", "Proto");
    for (const int p : counts)
        std::printf(" %6dp", p);
    std::printf("\n");

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            std::printf("%-16s %-5s", app.name.c_str(),
                        protocolKindName(kind));
            for (const int p : counts) {
                std::printf(
                    " %7.2f",
                    runner.result(pointKey(app, kind, p)).speedup());
            }
            std::printf("\n");
        }
    }

    report.addAll(runner);
    report.write();
    return 0;
}
