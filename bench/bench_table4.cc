/**
 * @file
 * Regenerates the paper's Table 4: percentage of time processors spend
 * in protocol activity under HLRC on the base (AO) system, split into
 * diff computation and protocol handler execution (the two components
 * the paper reports; the small remainder is twins/protection/other).
 *
 * Rows run on the parallel sweep engine (--jobs=N); BENCH_table4.json
 * records per-experiment wall-clock.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    BenchReport report("table4", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    for (const AppInfo &app : apps)
        runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.runPlanned();

    std::printf("Table 4: %% of time in protocol activity (HLRC, AO "
                "base system, %d procs)\n\n",
                opts.numProcs);
    std::printf("%-16s %8s %9s %9s %9s\n", "Application", "Total%",
                "Handler%", "Diff%", "Other%");

    for (const AppInfo &app : apps) {
        const ExperimentResult &r =
            runner.run(app, ProtocolKind::Hlrc, 'A', 'O');
        const RunStats &s = r.stats;
        const double total = 100.0 * s.protoTimeFraction();
        const double handler =
            100.0 * s.bucketFraction(TimeBucket::ProtoHandler);
        const double diff =
            100.0 * s.bucketFraction(TimeBucket::ProtoDiff);
        std::printf("%-16s %7.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
                    app.name.c_str(), total, handler, diff,
                    total - handler - diff);
    }

    report.addAll(runner);
    report.write();
    return 0;
}
