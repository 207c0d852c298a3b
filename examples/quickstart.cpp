/**
 * @file
 * Quickstart: run one application on a simulated 16-node SVM cluster
 * and print its speedup and execution-time breakdown.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [--quick] [--jobs=N]
 *
 * The sweep harness (SweepRunner) runs the sequential baseline and the
 * parallel run as two independent tasks, then reads both back; the
 * same two-phase plan/run pattern scales to the full grids in the
 * bench binaries.
 */

#include <cstdio>

#include "harness/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    opts.apps = {"fft"};
    if (!opts.parse(argc, argv))
        return 1;

    SweepRunner runner(opts);
    const AppInfo &app = findApp("fft");

    // 1. Plan the base system of the paper: 16 nodes, achievable
    //    communication costs (set A), original protocol costs (set O).
    //    The runner adds the sequential baseline (1-processor ideal
    //    machine) that the speedup divides by.
    runner.plan(app, ProtocolKind::Hlrc, 'A', 'O');
    runner.runPlanned();

    const Cycles seq = runner.baseline(app);
    std::printf("sequential time: %.2f Mcycles\n", seq / 1e6);

    const ExperimentResult &r =
        runner.run(app, ProtocolKind::Hlrc, 'A', 'O');
    std::printf("fft on %d-node HLRC (%s): %.2f Mcycles, speedup %.2f, "
                "verified: %s\n",
                opts.numProcs, r.config.c_str(),
                r.parallelCycles / 1e6, r.speedup(),
                r.verified ? "yes" : "NO");

    // 2. Execution-time breakdown (the paper's Figure 4 buckets).
    std::printf("\nper-processor average breakdown (Mcycles):\n");
    for (int b = 0; b < numTimeBuckets; ++b) {
        const auto bucket = static_cast<TimeBucket>(b);
        std::printf("  %-14s %8.3f\n", timeBucketName(bucket),
                    r.stats.avgBucket(bucket) / 1e6);
    }
    return r.verified ? 0 : 1;
}
