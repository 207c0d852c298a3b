/**
 * @file
 * Ablations beyond the paper's main grid, checking design choices the
 * paper calls out in passing:
 *
 *  - SC block granularity sweep (the paper: FFT at a fine granularity
 *    performs "substantially worse"; 64 B is best for the irregular
 *    applications);
 *  - SC handler-cost sensitivity (the paper: "changing the cost of
 *    handlers will not really affect performance" for SC);
 *  - HLRC page-size sweep (the coherence-granularity analogue);
 *  - software access-control (instrumentation) cost for SC — the
 *    Shasta-style scenario the paper discusses but does not simulate;
 *  - polling quantum sensitivity (validates the polling-approximation
 *    methodology: results should be stable across quanta).
 *
 * Every point is an independent simulation and runs on the sweep
 * runner (--jobs=N; --trace applies to every point);
 * BENCH_ablation.json records per-experiment wall-clock.
 */

#include <cstdio>
#include <string>

#include "harness/bench_report.hh"
#include "harness/sweep.hh"

namespace
{

using namespace swsm;

MachineParams
baseParams(const AppInfo &app, ProtocolKind kind, int procs)
{
    ExperimentConfig cfg;
    cfg.protocol = kind;
    cfg.numProcs = procs;
    cfg.blockBytes = app.scBlockBytes;
    return cfg.machineParams();
}

/** Plan one custom-parameter point keyed app/ablation/<tag>. */
void
planPoint(SweepRunner &runner, const AppInfo &app, const std::string &tag,
          const MachineParams &mp)
{
    runner.plan(app, app.name + "/ablation/" + tag, mp, tag);
}

double
point(const SweepRunner &runner, const AppInfo &app,
      const std::string &tag)
{
    return runner.result(app.name + "/ablation/" + tag).speedup();
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    if (!opts.parse(argc, argv))
        return 1;
    if (opts.apps.empty())
        opts.apps = {"fft", "radix", "barnes", "ocean", "water-nsq"};
    BenchReport report("ablation", &opts);
    SweepRunner runner(opts);
    const auto apps = opts.selectedApps();

    // Plan every section's grid up front, in the serial print order.
    for (const AppInfo &app : apps) {
        for (const std::uint32_t g : {64u, 256u, 1024u, 4096u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Sc, opts.numProcs);
            mp.blockBytes = g;
            planPoint(runner, app, "gran/" + std::to_string(g), mp);
        }
    }
    for (const AppInfo &app : apps) {
        for (const Cycles h : {0u, 200u, 500u, 1000u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Sc, opts.numProcs);
            mp.proto.scHandlerBase = h;
            planPoint(runner, app, "handler/" + std::to_string(h), mp);
        }
    }
    for (const AppInfo &app : apps) {
        for (const std::uint32_t pg : {1024u, 4096u, 16384u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Hlrc, opts.numProcs);
            mp.pageBytes = pg;
            planPoint(runner, app, "page/" + std::to_string(pg), mp);
        }
    }
    for (const AppInfo &app : apps) {
        for (const Cycles c : {0u, 5u, 15u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Sc, opts.numProcs);
            mp.accessCheckCycles = c;
            planPoint(runner, app, "access/" + std::to_string(c), mp);
        }
    }
    for (const AppInfo &app : apps) {
        for (const Cycles ic : {0u, 400u, 4000u, 20000u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Hlrc, opts.numProcs);
            mp.comm.interruptCost = ic;
            planPoint(runner, app, "interrupt/" + std::to_string(ic), mp);
        }
    }
    for (const AppInfo &app : apps) {
        for (const Cycles q : {250u, 1000u, 4000u}) {
            MachineParams mp =
                baseParams(app, ProtocolKind::Hlrc, opts.numProcs);
            mp.quantum = q;
            planPoint(runner, app, "quantum/" + std::to_string(q), mp);
        }
    }
    runner.runPlanned();

    // 1. SC granularity sweep.
    std::printf("Ablation 1: SC block granularity (speedups, %d "
                "procs)\n\n",
                opts.numProcs);
    std::printf("%-16s %8s %8s %8s %8s %8s %8s\n", "Application", "64B",
                "256B", "1KB", "4KB", "best", "paper");
    for (const AppInfo &app : apps) {
        double best = 0;
        std::uint32_t best_g = 0;
        std::printf("%-16s", app.name.c_str());
        for (const std::uint32_t g : {64u, 256u, 1024u, 4096u}) {
            const double sp =
                point(runner, app, "gran/" + std::to_string(g));
            std::printf(" %8.2f", sp);
            if (sp > best) {
                best = sp;
                best_g = g;
            }
        }
        std::printf(" %7uB %7uB\n", best_g, app.scBlockBytes);
    }

    // 2. SC handler cost sensitivity.
    std::printf("\nAblation 2: SC handler cost (paper: little "
                "effect)\n\n");
    std::printf("%-16s %8s %8s %8s %8s\n", "Application", "0cyc",
                "200cyc", "500cyc", "1000cyc");
    for (const AppInfo &app : apps) {
        std::printf("%-16s", app.name.c_str());
        for (const Cycles h : {0u, 200u, 500u, 1000u})
            std::printf(" %8.2f",
                        point(runner, app,
                              "handler/" + std::to_string(h)));
        std::printf("\n");
    }

    // 3. HLRC page size.
    std::printf("\nAblation 3: HLRC page size\n\n");
    std::printf("%-16s %8s %8s %8s\n", "Application", "1KB", "4KB",
                "16KB");
    for (const AppInfo &app : apps) {
        std::printf("%-16s", app.name.c_str());
        for (const std::uint32_t pg : {1024u, 4096u, 16384u})
            std::printf(" %8.2f",
                        point(runner, app,
                              "page/" + std::to_string(pg)));
        std::printf("\n");
    }

    // 4. SC software access control (Shasta-style instrumentation).
    std::printf("\nAblation 4: SC per-reference access-control cost "
                "(0 = the paper's hardware assumption)\n\n");
    std::printf("%-16s %8s %8s %8s\n", "Application", "0cyc", "5cyc",
                "15cyc");
    for (const AppInfo &app : apps) {
        std::printf("%-16s", app.name.c_str());
        for (const Cycles c : {0u, 5u, 15u})
            std::printf(" %8.2f",
                        point(runner, app,
                              "access/" + std::to_string(c)));
        std::printf("\n");
    }

    // 5. Interrupt-driven vs. polled message handling. The paper chose
    // polling because measured interrupt costs (tens of microseconds)
    // dominate the communication architecture when used.
    std::printf("\nAblation 6 (run first for cache warmth: numbering "
                "cosmetic): interrupts vs. polling (HLRC)\n\n");
    std::printf("%-16s %8s %9s %9s %9s\n", "Application", "polled",
                "int 2us", "int 20us", "int 100us");
    for (const AppInfo &app : apps) {
        std::printf("%-16s", app.name.c_str());
        for (const Cycles ic : {0u, 400u, 4000u, 20000u})
            std::printf(" %8.2f",
                        point(runner, app,
                              "interrupt/" + std::to_string(ic)));
        std::printf("\n");
    }

    // 5. Polling quantum.
    std::printf("\nAblation 5: polling quantum (methodology check — "
                "results should be stable)\n\n");
    std::printf("%-16s %8s %8s %8s\n", "Application", "250cyc",
                "1000cyc", "4000cyc");
    for (const AppInfo &app : apps) {
        std::printf("%-16s", app.name.c_str());
        for (const Cycles q : {250u, 1000u, 4000u})
            std::printf(" %8.2f",
                        point(runner, app,
                              "quantum/" + std::to_string(q)));
        std::printf("\n");
    }

    report.addAll(runner);
    report.write();
    return 0;
}
