/**
 * @file
 * Regenerates the paper's Figure 5: the impact of varying ONE
 * communication parameter at a time (host overhead, NI occupancy, I/O
 * bus bandwidth, message handling cost) from its achievable value to
 * its best value, for both protocols. The crossover behaviour — SC
 * depends mostly on overhead and occupancy, HLRC mostly on bandwidth —
 * is the paper's headline per-parameter conclusion.
 *
 * The per-parameter points are independent simulations planned as
 * custom experiments next to the AO points (--jobs=N; --trace applies
 * to every point); BENCH_fig5.json records per-experiment wall-clock.
 */

#include <cstdio>
#include <functional>
#include <string>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

namespace
{

using namespace swsm;

struct ParamAxis
{
    const char *name;
    std::function<void(CommParams &, double f)> apply; // f: 0=A, 1=best
};

std::string
pointKey(const AppInfo &app, ProtocolKind kind, const char *axis,
         double f)
{
    return app.name + "/" + protocolKindName(kind) + "/fig5/" + axis +
           "/" + (f == 1.0 ? "best" : "half");
}

/** Plan one app/protocol point with a customized communication setting. */
void
planPoint(SweepRunner &runner, const AppInfo &app, ProtocolKind kind,
          const ParamAxis &axis, double f, const CommParams &base)
{
    ExperimentConfig cfg;
    cfg.protocol = kind;
    cfg.numProcs = runner.options().numProcs;
    cfg.blockBytes = app.scBlockBytes;
    MachineParams mp = cfg.machineParams();
    mp.comm = base;
    axis.apply(mp.comm, f);
    runner.plan(app, pointKey(app, kind, axis.name, f), mp, cfg.name());
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    BenchReport report("fig5", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    const CommParams a = CommParams::achievable();
    const CommParams b = CommParams::best();
    const std::vector<ParamAxis> axes = {
        {"host overhead",
         [&](CommParams &p, double f) {
             p.hostOverhead = static_cast<Cycles>(
                 a.hostOverhead * (1 - f) + b.hostOverhead * f);
         }},
        {"NI occupancy",
         [&](CommParams &p, double f) {
             p.niOccupancyPerPacket = static_cast<Cycles>(
                 a.niOccupancyPerPacket * (1 - f) +
                 b.niOccupancyPerPacket * f);
         }},
        {"I/O bandwidth",
         [&](CommParams &p, double f) {
             p.ioBusBytesPerCycle = a.ioBusBytesPerCycle * (1 - f) +
                 b.ioBusBytesPerCycle * f;
         }},
        {"handling cost",
         [&](CommParams &p, double f) {
             p.handlingCost = static_cast<Cycles>(
                 a.handlingCost * (1 - f) + b.handlingCost * f);
         }},
    };

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            runner.plan(app, kind, 'A', 'O');
            for (const ParamAxis &axis : axes) {
                for (const double f : {0.5, 1.0})
                    planPoint(runner, app, kind, axis, f, a);
            }
        }
    }
    runner.runPlanned();

    std::printf("Figure 5: Individual communication parameters "
                "(achievable -> halfway -> best,\nothers fixed at "
                "achievable; %d procs). Entries are speedups.\n\n",
                opts.numProcs);
    std::printf("%-16s %-5s %-14s %7s %7s %7s %9s\n", "Application",
                "Proto", "Parameter", "A", "half", "best", "gain%");

    for (const AppInfo &app : apps) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            const double base = runner.run(app, kind, 'A', 'O').speedup();
            for (const ParamAxis &axis : axes) {
                double sp[2];
                int i = 0;
                for (const double f : {0.5, 1.0}) {
                    sp[i++] =
                        runner.result(pointKey(app, kind, axis.name, f))
                            .speedup();
                }
                std::printf(
                    "%-16s %-5s %-14s %7.2f %7.2f %7.2f %8.1f%%\n",
                    app.name.c_str(), protocolKindName(kind), axis.name,
                    base, sp[0], sp[1], 100.0 * (sp[1] - base) / base);
            }
        }
    }

    report.addAll(runner);
    report.write();
    return 0;
}
