/**
 * @file
 * Regenerates the paper's Figure 3: parallel speedups (vs. the best
 * sequential run) for every application version under both protocols
 * and the layer-cost configurations.
 *
 * Columns are ⟨comm set⟩⟨protocol cost set⟩ per the paper's naming:
 * XB = "better-than-best" communication + zero protocol costs,
 * AO = the base achievable system, WO = 2x-worse communication.
 * SC runs use the per-application best block granularity and have no
 * protocol-cost variants (fixed simple handlers), as in the paper.
 *
 * The whole grid is executed by the parallel sweep engine before any
 * row is printed, so --jobs=N changes wall-clock time but never the
 * (byte-identical) table. A BENCH_fig3.json wall-clock report is
 * written alongside. With --memo=DIR a re-run replays the experiments
 * an earlier run stored in DIR and prints the same table.
 *
 * Options: --quick / --medium (problem size), --full (adds the halfway
 * configurations), --apps=..., --procs=N, --jobs=N, --memo=DIR.
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
    BenchReport report("fig3", &opts);
    SweepRunner runner(opts);
    const auto configs = figure3Configs(opts.full);
    const auto apps = opts.selectedApps();

    // The grid definition is shared with the host-time benchmark
    // (swsmbench/), so its fig3 workloads time this experiment set.
    for (const GridItem &item : figure3Grid(opts)) {
        if (item.ideal)
            runner.planIdeal(item.app);
        else
            runner.plan(item.app, item.kind, item.commSet,
                        item.protoSet);
    }
    runner.runPlanned();

    std::printf("Figure 3: Speedups on %d processors "
                "(vs. sequential; Ideal = algorithmic limit)\n\n",
                opts.numProcs);
    std::printf("%-16s %-5s %6s", "Application", "Proto", "Ideal");
    for (const auto &[c, p] : configs)
        std::printf(" %5c%c", c, p);
    std::printf("\n");

    for (const AppInfo &app : apps) {
        const double ideal = runner.runIdeal(app).speedup();
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            std::printf("%-16s %-5s %6.2f", app.name.c_str(),
                        protocolKindName(kind), ideal);
            for (const auto &[c, p] : configs) {
                if (kind == ProtocolKind::Sc && p != 'O' && p != 'B') {
                    std::printf(" %6s", "-");
                    continue;
                }
                const ExperimentResult &r = runner.run(app, kind, c, p);
                std::printf(" %6.2f", r.speedup());
            }
            std::printf("\n");
        }
    }
    std::printf("\n(SC protocol-cost variants collapse onto the O "
                "column: the paper fixes SC's simple handler cost.)\n");

    report.addAll(runner);
    report.write();
    return 0;
}
