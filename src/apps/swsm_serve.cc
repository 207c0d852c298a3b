/**
 * @file
 * swsm_serve: the persistent sweep server (serve/server.hh).
 *
 * Listens on a local unix socket for run/grid requests, memoizes
 * completed experiments in a named shared-memory segment, and streams
 * BENCH-schema results back. Every simulation runs in this process on
 * --jobs scheduler threads, exactly as a batch bench binary runs its
 * grid. Pair with swsm_query (the client CLI) or
 * tools/bench_diff.py --from-shm (offline segment reader).
 */

#include <cstdio>
#include <string>

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
        "          [--arena-mb=N] [--jobs=N] [--reset]\n"
        "  --sock=PATH     listening socket (default: "
        "$SWSM_SERVE_SOCK or <shm dir>/swsm_serve.sock)\n"
        "  --segment=NAME  memo segment name in $SWSM_SHM_DIR or "
        "/dev/shm (default: swsm_memo)\n"
        "  --slots=N       memo hash-table capacity (default: 4096)\n"
        "  --arena-mb=N    memo arena size in MiB (default: 64)\n"
        "  --jobs=N        scheduler threads per grid request "
        "(default: SWSM_JOBS or hardware concurrency)\n"
        "  --reset         wipe the segment before serving\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    ServerOptions opts;
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
            if (!parseBoundedInt(arg.substr(7), 1, maxJobs, opts.jobs)) {
                usage(argv[0]);
                return 1;
            }
        } else if (arg == "--reset") {
            opts.reset = true;
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 1;
        }
    }

    try {
        Server server(opts);
        std::fprintf(stderr,
                     "swsm_serve: listening on %s (segment %s%s)\n",
                     server.sockPath().c_str(), opts.segment.c_str(),
                     server.cache().wasRebuilt() ? ", rebuilt" : "");
        server.run();
        std::fprintf(stderr, "swsm_serve: shut down\n");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "swsm_serve: %s\n", e.what());
        return 1;
    }
    return 0;
}
