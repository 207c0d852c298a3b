/**
 * @file
 * Regenerates the paper's layer-synergy analysis (§4.5): the
 * percentage improvement each system layer delivers, before and after
 * the other layer has been improved, plus the effect of application
 * restructuring at each system level. The paper's signature result is
 * that improving one layer *increases* the other's impact:
 * e.g. AO->AB < BO->BB and AO->BO < AB->BB.
 *
 * The grid runs on the parallel sweep engine (--jobs=N);
 * BENCH_synergy.json records per-experiment wall-clock.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

namespace
{

double
pct(double from, double to)
{
    return 100.0 * (to - from) / from;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    BenchReport report("synergy", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    for (const AppInfo &app : apps) {
        for (const auto &[c, p] :
             {std::pair{'A', 'O'}, std::pair{'A', 'B'},
              std::pair{'B', 'O'}, std::pair{'B', 'B'},
              std::pair{'H', 'O'}, std::pair{'H', 'B'}})
            runner.plan(app, ProtocolKind::Hlrc, c, p);
    }
    for (const AppInfo &app : apps) {
        if (!app.restructured)
            continue;
        const AppInfo &orig = findApp(app.originalOf);
        bool selected = false;
        for (const AppInfo &sel : apps)
            selected |= sel.name == orig.name;
        if (!selected)
            continue;
        for (const auto &[c, p] : {std::pair{'A', 'O'},
                                   std::pair{'B', 'O'},
                                   std::pair{'B', 'B'}}) {
            runner.plan(orig, ProtocolKind::Hlrc, c, p);
            runner.plan(app, ProtocolKind::Hlrc, c, p);
        }
    }
    runner.runPlanned();

    std::printf("Layer synergy under HLRC (%d procs). Entries are %% "
                "speedup improvements.\n\n",
                opts.numProcs);
    std::printf("%-16s | %8s %8s | %8s %8s | %9s %9s\n", "Application",
                "AO->AB", "BO->BB", "AO->BO", "AB->BB", "AO->HO",
                "HO->HB");
    std::printf("  protocol-cost gain before/after comm | comm gain "
                "before/after protocol | halfway\n");
    std::printf("%.*s\n", 78,
                "-----------------------------------------------------"
                "-------------------------");

    for (const AppInfo &app : apps) {
        const double ao =
            runner.run(app, ProtocolKind::Hlrc, 'A', 'O').speedup();
        const double ab =
            runner.run(app, ProtocolKind::Hlrc, 'A', 'B').speedup();
        const double bo =
            runner.run(app, ProtocolKind::Hlrc, 'B', 'O').speedup();
        const double bb =
            runner.run(app, ProtocolKind::Hlrc, 'B', 'B').speedup();
        const double ho =
            runner.run(app, ProtocolKind::Hlrc, 'H', 'O').speedup();
        const double hb =
            runner.run(app, ProtocolKind::Hlrc, 'H', 'B').speedup();

        std::printf("%-16s | %7.1f%% %7.1f%% | %7.1f%% %7.1f%% | "
                    "%8.1f%% %8.1f%%\n",
                    app.name.c_str(), pct(ao, ab), pct(bo, bb),
                    pct(ao, bo), pct(ab, bb), pct(ao, ho), pct(ho, hb));
    }

    // Restructuring interaction: how much restructuring helps at each
    // system level (the application layer of the synergy story).
    std::printf("\nApplication restructuring gain at each system level "
                "(HLRC):\n");
    std::printf("%-16s | %9s %9s %9s\n", "Original", "at AO", "at BO",
                "at BB");
    for (const AppInfo &app : apps) {
        if (!app.restructured)
            continue;
        const AppInfo &orig = findApp(app.originalOf);
        bool selected = false;
        for (const AppInfo &sel : apps)
            selected |= sel.name == orig.name;
        if (!selected)
            continue;
        double gains[3];
        int i = 0;
        for (const auto &[c, p] : {std::pair{'A', 'O'},
                                   std::pair{'B', 'O'},
                                   std::pair{'B', 'B'}}) {
            const double o =
                runner.run(orig, ProtocolKind::Hlrc, c, p).speedup();
            const double r =
                runner.run(app, ProtocolKind::Hlrc, c, p).speedup();
            gains[i++] = pct(o, r);
        }
        std::printf("%-16s | %8.1f%% %8.1f%% %8.1f%%\n",
                    orig.name.c_str(), gains[0], gains[1], gains[2]);
    }

    report.addAll(runner);
    report.write();
    return 0;
}
