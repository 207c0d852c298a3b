/**
 * @file
 * Regenerates the paper's Figure 4: execution time breakdowns (average
 * over processors) for the main configurations of Figure 3. Times are
 * normalized to the AO (base) total of each application/protocol so
 * bars are comparable within a row group, and the buckets are the
 * paper's: busy, local cache stall, data wait, lock wait, barrier
 * wait, and protocol time (handlers / diffs / twins / protection).
 *
 * The grid runs on the parallel sweep engine (--jobs=N) before
 * printing; BENCH_fig4.json records per-experiment wall-clock.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

namespace
{

using namespace swsm;

double
bucketMcycles(const RunStats &s, TimeBucket b)
{
    return s.avgBucket(b) / 1e6;
}

double
protoMcycles(const RunStats &s)
{
    double total = 0;
    for (int b = 0; b < numTimeBuckets; ++b) {
        if (isProtoBucket(static_cast<TimeBucket>(b)))
            total += s.avgBucket(static_cast<TimeBucket>(b)) / 1e6;
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    BenchReport report("fig4", &opts);
    SweepRunner runner(opts);
    const auto configs = figure3Configs(opts.full);
    const auto apps = opts.selectedApps();

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            for (const auto &[c, p] : configs) {
                if (kind == ProtocolKind::Sc && p != 'O' && p != 'B')
                    continue;
                runner.plan(app, kind, c, p);
            }
        }
    }
    runner.runPlanned();

    std::printf("Figure 4: Execution time breakdowns "
                "(Mcycles, averaged over %d processors)\n\n",
                opts.numProcs);
    std::printf("%-16s %-5s %-4s %8s %8s %8s %8s %8s %8s %9s\n",
                "Application", "Proto", "Cfg", "busy", "lstall", "dwait",
                "lock", "barrier", "proto", "total");

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            for (const auto &[c, p] : configs) {
                if (kind == ProtocolKind::Sc && p != 'O' && p != 'B')
                    continue;
                const ExperimentResult &r = runner.run(app, kind, c, p);
                const RunStats &s = r.stats;
                double total = 0;
                for (int b = 0; b < numTimeBuckets; ++b)
                    total += s.avgBucket(static_cast<TimeBucket>(b));
                std::printf(
                    "%-16s %-5s %c%c   %8.2f %8.2f %8.2f %8.2f %8.2f "
                    "%8.2f %9.2f\n",
                    app.name.c_str(), protocolKindName(kind), c, p,
                    bucketMcycles(s, TimeBucket::Busy),
                    bucketMcycles(s, TimeBucket::StallLocal),
                    bucketMcycles(s, TimeBucket::DataWait),
                    bucketMcycles(s, TimeBucket::LockWait),
                    bucketMcycles(s, TimeBucket::BarrierWait),
                    protoMcycles(s), total / 1e6);
            }
            std::printf("\n");
        }
    }

    report.addAll(runner);
    report.write();
    return 0;
}
