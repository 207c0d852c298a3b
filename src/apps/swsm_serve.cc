/**
 * @file
 * swsm_serve: the persistent sweep server (serve/server.hh).
 *
 * Listens on a local unix socket for run/grid requests, memoizes
 * completed experiments in a named shared-memory segment, and streams
 * BENCH-schema results back. Pair with swsm_query (the client CLI) or
 * tools/bench_diff.py --from-shm (offline segment reader).
 *
 * --workers=N forks N worker processes that pull cache misses off a
 * shared-memory job queue (multi-process fan-out, serve/shm_queue.hh);
 * --workers=auto sizes the pool from the measured core budget
 * (harness/budget.hh). --tcp=PORT additionally serves the same verbs
 * over TCP so shard coordinators (serve/shard.hh) can reach this host.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "harness/budget.hh"
#include "serve/server.hh"
#include "sim/env.hh"
#include "sim/log.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--sock=PATH] [--segment=NAME] [--slots=N]\n"
        "          [--arena-mb=N] [--jobs=N] [--workers=N|auto]\n"
        "          [--tcp=PORT] [--lease-timeout-ms=N] [--reset]\n"
        "  --sock=PATH     listening socket (default: "
        "$SWSM_SERVE_SOCK or <shm dir>/swsm_serve.sock)\n"
        "  --segment=NAME  memo segment name in $SWSM_SHM_DIR or "
        "/dev/shm (default: swsm_memo)\n"
        "  --slots=N       memo hash-table capacity (default: 4096)\n"
        "  --arena-mb=N    memo arena size in MiB (default: 64)\n"
        "  --jobs=N        scheduler threads per grid request "
        "(default: measured core budget)\n"
        "  --workers=N     fork N job-queue worker processes; auto = "
        "size from the core budget; 0 = in-process (default)\n"
        "  --tcp=PORT      also accept requests on this TCP port "
        "(shard transport)\n"
        "  --lease-timeout-ms=N  re-queue a worker job whose "
        "heartbeat is older than this (default: 10000)\n"
        "  --reset         wipe the segment before serving\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    ServerOptions opts;
    bool jobsExplicit = false;
    bool workersAuto = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        int parsed = 0;
        if (arg.rfind("--sock=", 0) == 0) {
            opts.sockPath = arg.substr(7);
        } else if (arg.rfind("--segment=", 0) == 0) {
            opts.segment = arg.substr(10);
        } else if (arg.rfind("--slots=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(8), 1, 1 << 20, parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.slotCount = static_cast<std::uint32_t>(parsed);
        } else if (arg.rfind("--arena-mb=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(11), 1, 16384, parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.arenaBytes = static_cast<std::uint64_t>(parsed) << 20;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(7), 1, maxJobs, parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.jobs = parsed;
            jobsExplicit = true;
        } else if (arg == "--workers=auto") {
            workersAuto = true;
        } else if (arg.rfind("--workers=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(10), 0, maxWorkerProcs,
                                 parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.workers = parsed;
        } else if (arg.rfind("--tcp=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(6), 1, 65535, parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.tcpPort = parsed;
        } else if (arg.rfind("--lease-timeout-ms=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(19), 100, 3600000,
                                 parsed)) {
                usage(argv[0]);
                return 1;
            }
            opts.leaseTimeoutMs = static_cast<std::uint64_t>(parsed);
        } else if (arg == "--reset") {
            opts.reset = true;
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 1;
        }
    }

    // Resolve jobs / workers through the measured core budget (explicit
    // flags stay authoritative). Per-simulation threads stay as
    // ServerOptions read them: SWSM_SIM_THREADS, else 1.
    {
        BudgetRequest breq;
        breq.jobs = opts.jobs;
        breq.jobsExplicit = jobsExplicit;
        breq.workers = workersAuto ? 0 : opts.workers;
        breq.workersAuto = workersAuto;
        const Budget budget = computeBudget(breq);
        if (workersAuto)
            opts.workers = budget.workers;
        if (!jobsExplicit)
            opts.jobs = budget.jobs;
    }

    try {
        Server server(opts);
        std::fprintf(stderr,
                     "swsm_serve: listening on %s (segment %s%s)\n",
                     server.sockPath().c_str(), opts.segment.c_str(),
                     server.cache().wasRebuilt() ? ", rebuilt" : "");
        if (opts.workers > 0)
            std::fprintf(stderr,
                         "swsm_serve: %d worker processes x %d "
                         "sim threads (lease timeout %llu ms)\n",
                         opts.workers, opts.simThreads,
                         static_cast<unsigned long long>(
                             opts.leaseTimeoutMs));
        if (opts.tcpPort > 0)
            std::fprintf(stderr, "swsm_serve: tcp port %d\n",
                         opts.tcpPort);
        server.run();
        std::fprintf(stderr, "swsm_serve: shut down\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "swsm_serve: %s\n", e.what());
        return 1;
    }
    return 0;
}
