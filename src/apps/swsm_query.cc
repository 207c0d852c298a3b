/**
 * @file
 * swsm_query: client CLI for the sweep server (serve/server.hh).
 *
 *   swsm_query [--sock=PATH] [--out=FILE] [--timeout=MS]
 *              <verb> [key=value]...
 *
 * Verbs mirror the wire protocol: ping, stats, shutdown,
 * run app=fft proto=hlrc comm=A cost=O size=small procs=16,
 * grid bench=fig3 size=tiny procs=8 [full=1] [apps=a,b].
 *
 * --timeout bounds every socket read/write so a wedged server yields a
 * diagnostic instead of a hang. A connect to an absent server fails at
 * once; scripts that start a server wait for its socket file first.
 *
 * Event lines stream to stderr as they arrive; the BENCH report (run
 * and grid verbs) goes to stdout or --out=FILE. Exits non-zero on
 * transport or server errors.
 */

#include <cstdio>
#include <string>

#include "serve/client.hh"
#include "sim/env.hh"
#include "sim/log.hh"

int
main(int argc, char **argv)
{
    using namespace swsm;

    std::string sock = wire::defaultSockPath();
    std::string outPath;
    ClientOptions copts;
    wire::Request req;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        int parsed = 0;
        if (arg.rfind("--sock=", 0) == 0) {
            sock = arg.substr(7);
        } else if (arg.rfind("--out=", 0) == 0) {
            outPath = arg.substr(6);
        } else if (arg.rfind("--timeout=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(10), 1, 86400000, parsed)) {
                std::fprintf(stderr,
                             "swsm_query: bad --timeout (1..86400000 "
                             "ms)\n");
                return 1;
            }
            copts.timeoutMs = parsed;
        } else if (req.verb.empty() &&
                   arg.find('=') == std::string::npos) {
            req.verb = arg;
        } else if (!req.verb.empty()) {
            const std::size_t eq = arg.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "swsm_query: bad parameter \"%s\" "
                             "(want key=value)\n",
                             arg.c_str());
                return 1;
            }
            req.params[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else {
            std::fprintf(
                stderr,
                "usage: swsm_query [--sock=PATH] [--out=FILE] "
                "[--timeout=MS] <ping|stats|run|grid|shutdown> "
                "[key=value]...\n");
            return arg == "--help" ? 0 : 1;
        }
    }
    if (req.verb.empty()) {
        std::fprintf(stderr, "swsm_query: missing verb\n");
        return 1;
    }

    const ServeResponse resp = serveRequest(
        sock, req,
        [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        },
        copts);
    if (!resp.ok) {
        std::fprintf(stderr, "swsm_query: %s\n", resp.error.c_str());
        return 1;
    }

    if (!resp.report.empty()) {
        if (outPath.empty()) {
            std::fwrite(resp.report.data(), 1, resp.report.size(),
                        stdout);
        } else {
            std::FILE *f = std::fopen(outPath.c_str(), "w");
            if (!f) {
                std::fprintf(stderr, "swsm_query: cannot write %s\n",
                             outPath.c_str());
                return 1;
            }
            const bool ok = std::fwrite(resp.report.data(), 1,
                                        resp.report.size(),
                                        f) == resp.report.size();
            std::fclose(f);
            if (!ok) {
                std::fprintf(stderr, "swsm_query: short write to %s\n",
                             outPath.c_str());
                return 1;
            }
        }
    }
    return 0;
}
