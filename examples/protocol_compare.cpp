/**
 * @file
 * The paper's headline comparison on one pathological application:
 * Radix sort, original vs. restructured, page-based SVM (HLRC) vs.
 * fine-grained SC — showing how coherence granularity interacts with
 * false sharing and how restructuring rescues the page-based protocol.
 *
 * The four (version x protocol) runs are independent and execute on
 * the parallel sweep engine.
 *
 *   ./build/examples/protocol_compare [--quick] [--jobs=N]
 */

#include <cstdio>

#include "harness/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    SweepOptions opts;
    opts.apps = {"radix", "radix-local"};
    if (!opts.parse(argc, argv))
        return 1;

    SweepRunner runner(opts);

    for (const AppInfo &app : opts.selectedApps()) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc})
            runner.plan(app, kind, 'A', 'O');
    }
    runner.runPlanned();

    std::printf("Radix sort, 16 processors: the page-granularity "
                "false-sharing story\n\n");
    std::printf("%-14s %-6s %9s %10s %10s %9s\n", "Version", "Proto",
                "speedup", "messages", "MB moved", "diffs");

    for (const AppInfo &app : opts.selectedApps()) {
        for (const ProtocolKind kind :
             {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
            const ExperimentResult &r = runner.run(app, kind, 'A', 'O');
            const MetricsSnapshot &m = r.stats.metrics;
            std::printf("%-14s %-6s %9.2f %10llu %10.1f %9llu%s\n",
                        app.name.c_str(), protocolKindName(kind),
                        r.speedup(),
                        static_cast<unsigned long long>(
                            m.counter("net.messages")),
                        m.counter("net.bytes") / 1e6,
                        static_cast<unsigned long long>(
                            m.counter("proto.diffs_created")),
                        r.verified ? "" : "  (VERIFY FAILED)");
        }
    }

    std::printf("\nOriginal radix scatters 4-byte writes across the "
                "whole destination array:\nunder a 4 KB-page protocol "
                "every processor twins, diffs and fetches nearly\nevery "
                "page. The restructured version stages keys locally and "
                "lets owners\npull contiguous runs — the paper's "
                "application-layer fix.\n");
    return 0;
}
