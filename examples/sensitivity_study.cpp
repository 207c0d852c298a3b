/**
 * @file
 * A miniature version of the paper's layered study on one application:
 * sweep the communication layer (A->H->B), the protocol layer (O->H->B)
 * and the application layer (original vs. restructured Ocean), and
 * print the 3x3x2 speedup cube plus the synergy deltas.
 *
 * The 18-point cube runs on the parallel sweep engine.
 *
 *   ./build/examples/sensitivity_study [--quick] [--jobs=N]
 */

#include <cstdio>

#include "harness/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    opts.apps = {"ocean", "ocean-rowwise"};
    if (!opts.parse(argc, argv))
        return 1;

    SweepRunner runner(opts);

    for (const AppInfo &app : opts.selectedApps()) {
        for (const char comm : {'A', 'H', 'B'})
            for (const char proto : {'O', 'H', 'B'})
                runner.plan(app, ProtocolKind::Hlrc, comm, proto);
    }
    runner.runPlanned();

    std::printf("Ocean under HLRC, 16 processors: the three layers "
                "(application x\ncommunication x protocol)\n\n");

    for (const AppInfo &app : opts.selectedApps()) {
        std::printf("%s:\n        proto O   proto H   proto B\n",
                    app.name.c_str());
        double grid[3][3];
        int ci = 0;
        for (const char comm : {'A', 'H', 'B'}) {
            std::printf("comm %c", comm);
            int pi = 0;
            for (const char proto : {'O', 'H', 'B'}) {
                const ExperimentResult &r =
                    runner.run(app, ProtocolKind::Hlrc, comm, proto);
                grid[ci][pi++] = r.speedup();
                std::printf(" %9.2f", r.speedup());
            }
            std::printf("\n");
            ++ci;
        }
        const double ao = grid[0][0], ab = grid[0][2], bo = grid[2][0],
                     bb = grid[2][2];
        std::printf("  synergy: protocol idealization gains %.0f%% at "
                    "achievable comm,\n           but %.0f%% once "
                    "communication is best (AO->AB vs BO->BB)\n\n",
                    100.0 * (ab - ao) / ao, 100.0 * (bb - bo) / bo);
    }
    return 0;
}
