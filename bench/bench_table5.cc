/**
 * @file
 * Regenerates the paper's Table 5: the per-application HLRC summary —
 * whether communication or protocol costs matter more from the base
 * system, whether improving one layer fully (BO) beats improving both
 * halfway (HB), and the cheapest configuration that reaches a 10-fold
 * speedup on 16 processors (or "none", meaning application
 * restructuring or better-than-best communication is required).
 *
 * The whole ladder is planned up front so it can run on the parallel
 * sweep engine (--jobs=N); BENCH_table5.json records per-experiment
 * wall-clock.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    BenchReport report("table5", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    // Cheapest-first ladder of improvements over the base system.
    const std::vector<std::pair<char, char>> ladder = {
        {'A', 'H'}, {'A', 'B'}, {'H', 'O'}, {'H', 'H'}, {'H', 'B'},
        {'B', 'O'}, {'B', 'H'}, {'B', 'B'}, {'X', 'B'},
    };
    const double target = 10.0;

    // The serial runner stopped at the first ladder rung reaching the
    // target; the parallel engine plans every rung (results identical,
    // a little extra work buys the parallelism).
    for (const AppInfo &app : apps) {
        runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
        for (const auto &[c, p] : ladder)
            runner.plan(app, ProtocolKind::Hlrc, c, p);
    }
    runner.runPlanned();

    std::printf("Table 5: HLRC per-application summary (%d procs, "
                "target %.0f-fold speedup)\n\n",
                opts.numProcs, target);
    std::printf("%-16s %6s | %-12s | %-10s | %-14s\n", "Application",
                "AO", "more important", "BO vs HB", "first >=10x");
    std::printf("%.*s\n", 70,
                "---------------------------------------------------"
                "-------------------");

    for (const AppInfo &app : apps) {
        const double ao =
            runner.run(app, ProtocolKind::Hlrc, 'A', 'O').speedup();
        const double ab =
            runner.run(app, ProtocolKind::Hlrc, 'A', 'B').speedup();
        const double bo =
            runner.run(app, ProtocolKind::Hlrc, 'B', 'O').speedup();
        const double hb =
            runner.run(app, ProtocolKind::Hlrc, 'H', 'B').speedup();

        const char *important =
            bo > ab * 1.05 ? "comm" : (ab > bo * 1.05 ? "protocol"
                                                      : "similar");
        const char *bo_vs_hb =
            bo > hb * 1.05 ? "BO" : (hb > bo * 1.05 ? "HB" : "tie");

        std::string first = "none";
        for (const auto &[c, p] : ladder) {
            if (runner.run(app, ProtocolKind::Hlrc, c, p).speedup() >=
                target) {
                first = std::string(1, c) + std::string(1, p);
                break;
            }
        }
        std::printf("%-16s %6.2f | %-12s | %-10s | %-14s\n",
                    app.name.c_str(), ao, important, bo_vs_hb,
                    first.c_str());
    }
    std::printf("\n'none' = even best/best is insufficient; the paper's "
                "conclusion is that such\napplications need "
                "restructuring or better-than-best bandwidth (XB).\n");

    report.addAll(runner);
    report.write();
    return 0;
}
