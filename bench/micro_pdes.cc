/**
 * @file
 * Parallel event-kernel benchmark (host wall-clock, not simulated
 * cycles). Report-only on speed; two sections:
 *
 * Apps: runs 16-node Figure 3 configurations (HLRC, comm set A,
 * protocol cost set O) serially and with --sim-threads={2,4}, each
 * repeated N times, and reports min/median host seconds per thread
 * count plus the speedup of the best threaded rep over the best
 * serial rep.
 *
 * Islands: a 16-node low-latency (comm set X) cluster arranged as two
 * islands of eight with a large inter-island hop cost, run serially
 * and with the per-destination lookahead matrix at 4 threads. The
 * global-minimum bound would collapse to the tiny intra-island hop;
 * the matrix keeps the wide inter-island edges per destination pair.
 * The windows/widened counters are deterministic (simulation state
 * only), so the section *always* asserts the mechanism — the
 * partitioned cell must widen windows past the global-minimum bound —
 * on any host, including single-core CI.
 *
 * The benchmark *asserts* what the equivalence suite tests: every rep
 * of every cell must produce bit-identical simulated results (total
 * cycles, per-node finish times, every counter outside the
 * host-dependent sim.pdes_* / machine.fastpath_* bookkeeping). A
 * mismatch, or a window-shape gate failure, exits non-zero; host
 * speed never does.
 *
 * Writes BENCH_pdes.json (SWSM_BENCH_DIR honored); hostSeconds fields
 * are {"min", "median"} objects, which tools/bench_diff.py
 * understands. Each run entry carries the deterministic window-shape
 * counters (pdesWindows, pdesWindowWidened — compared by
 * bench_diff.py).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app_registry.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "obs/json_writer.hh"
#include "sim/env.hh"

namespace
{

using namespace swsm;

/** Everything a run produces that the parallel kernel must not change. */
struct Signature
{
    Cycles total = 0;
    std::vector<Cycles> finish;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    bool operator==(const Signature &) const = default;
};

/** Counters that legitimately depend on how the host executed the run. */
bool
hostDependent(const std::string &name)
{
    return name.rfind("sim.pdes_", 0) == 0 ||
           name.rfind("machine.fastpath_", 0) == 0 ||
           name == "sim.max_pending_events";
}

Signature
signatureOf(const ExperimentResult &r)
{
    Signature s;
    s.total = r.stats.totalCycles;
    s.finish = r.stats.finishTimes;
    for (const auto &[name, value] : r.stats.metrics.counters) {
        if (!hostDependent(name))
            s.counters.emplace_back(name, value);
    }
    return s;
}

std::uint64_t
counterOf(const ExperimentResult &r, const std::string &name)
{
    for (const auto &[n, value] : r.stats.metrics.counters) {
        if (n == name)
            return value;
    }
    return 0;
}

/** The deterministic parallel-kernel shape counters. */
struct WindowStats
{
    std::uint64_t windows = 0;
    std::uint64_t widened = 0;
};

WindowStats
windowStatsOf(const ExperimentResult &r)
{
    WindowStats w;
    w.windows = counterOf(r, "sim.pdes_windows");
    w.widened = counterOf(r, "sim.pdes_window_widened");
    return w;
}

double
minOf(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** One measured cell: N timed reps, one signature, one window shape. */
struct Cell
{
    int threads = 1;
    std::vector<double> seconds;
    Signature sig;
    WindowStats windows;
};

struct Options
{
    bool quick = false;
    int reps = 3;
    int procs = 16;
    std::vector<std::string> apps;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            o.quick = true;
        } else if (arg.rfind("--reps=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(7), 1, 1000, o.reps)) {
                std::fprintf(stderr,
                             "--reps needs an integer in [1, 1000], got "
                             "\"%s\"\n",
                             arg.c_str() + 7);
                return false;
            }
        } else if (arg.rfind("--procs=", 0) == 0) {
            if (!parseBoundedInt(arg.substr(8), 1, maxProcs, o.procs)) {
                std::fprintf(stderr,
                             "--procs needs an integer in [1, %d], got "
                             "\"%s\"\n",
                             maxProcs, arg.c_str() + 8);
                return false;
            }
        } else if (arg.rfind("--apps=", 0) == 0) {
            std::string list = arg.substr(7);
            for (std::size_t pos = 0; pos < list.size();) {
                const std::size_t comma = list.find(',', pos);
                const std::size_t end =
                    comma == std::string::npos ? list.size() : comma;
                if (end > pos)
                    o.apps.push_back(list.substr(pos, end - pos));
                pos = end + 1;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--reps=N] [--procs=N] "
                         "[--apps=a,b]\n",
                         argv[0]);
            return false;
        }
    }
    if (o.apps.empty())
        o.apps = {"fft", "lu"};
    return true;
}

/** Run one cell: @p reps timed reps of @p factory on @p mp. */
Cell
runCell(const WorkloadFactory &factory, SizeClass size,
        const MachineParams &mp, const std::string &config_name,
        const std::string &label, int reps, bool &ok)
{
    Cell cell;
    cell.threads = mp.simThreads;
    for (int rep = 0; rep < reps; ++rep) {
        const ExperimentResult r =
            runExperiment(factory, size, mp, config_name, 0);
        cell.seconds.push_back(r.hostSeconds);
        Signature sig = signatureOf(r);
        if (rep == 0) {
            cell.sig = std::move(sig);
            cell.windows = windowStatsOf(r);
        } else if (sig != cell.sig) {
            std::fprintf(stderr,
                         "FAIL: %s is not deterministic across reps\n",
                         label.c_str());
            ok = false;
        }
    }
    return cell;
}

void
writeCellJson(JsonWriter &w, const std::string &section,
              const std::string &app, const std::string &config,
              const Cell &cell, const Cell &serial, double speedup)
{
    w.beginObject();
    w.member("section", section);
    w.member("app", app);
    w.member("config", config);
    w.member("protocol", "HLRC");
    w.member("simThreads", cell.threads);
    w.member("simulatedCycles",
             static_cast<std::uint64_t>(cell.sig.total));
    w.member("equivalent", cell.sig == serial.sig);
    // Deterministic window shape (simulation state only): compared by
    // tools/bench_diff.py.
    w.member("pdesWindows", cell.windows.windows);
    w.member("pdesWindowWidened", cell.windows.widened);
    w.key("hostSeconds");
    w.beginObject();
    w.member("min", minOf(cell.seconds));
    w.member("median", medianOf(cell.seconds));
    w.endObject();
    w.member("speedupVsSerial", speedup);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return 2;
    const SizeClass size = o.quick ? SizeClass::Tiny : SizeClass::Small;
    const unsigned hw = std::thread::hardware_concurrency();
    const std::vector<int> thread_counts = {1, 2, 4};
    bool ok = true;

    JsonWriter w(2);
    w.beginObject();
    w.member("schema", 2);
    w.member("bench", "pdes");
    w.member("quick", o.quick);
    w.member("reps", o.reps);
    w.member("procs", o.procs);
    w.member("hwConcurrency", static_cast<std::uint64_t>(hw));
    w.key("runs");
    w.beginArray();

    std::printf("%-14s %8s %10s %10s %9s\n", "app", "threads", "min(s)",
                "median(s)", "speedup");
    for (const std::string &name : o.apps) {
        const AppInfo &app = findApp(name);
        std::vector<Cell> cells;
        for (const int threads : thread_counts) {
            ExperimentConfig config;
            config.protocol = ProtocolKind::Hlrc;
            config.commSet = 'A';
            config.protoSet = 'O';
            config.numProcs = o.procs;
            config.simThreads = threads;
            cells.push_back(runCell(
                app.factory, size, config.machineParams(), config.name(),
                name + " with " + std::to_string(threads) +
                    " sim threads",
                o.reps, ok));
        }

        const Cell &serial = cells.front();
        const double serial_min = minOf(serial.seconds);
        for (const Cell &cell : cells) {
            if (cell.sig != serial.sig) {
                std::fprintf(stderr,
                             "FAIL: %s with %d sim threads diverges "
                             "from the serial kernel (total %llu vs "
                             "%llu)\n",
                             name.c_str(), cell.threads,
                             static_cast<unsigned long long>(
                                 cell.sig.total),
                             static_cast<unsigned long long>(
                                 serial.sig.total));
                ok = false;
            }
            const double best = minOf(cell.seconds);
            const double speedup = best > 0 ? serial_min / best : 0.0;
            std::printf("%-14s %8d %10.3f %10.3f %8.2fx\n", name.c_str(),
                        cell.threads, best, medianOf(cell.seconds),
                        speedup);
            writeCellJson(w, "apps", name, "AO", cell, serial, speedup);
        }
    }

    // ------------------------------------------------------------------
    // Islands: per-destination lookahead on an asymmetric low-latency
    // geometry. Comm set X has a ~1-cycle flat hop; two islands of
    // eight put the tiny hop inside each island and a wide one between
    // them. With four partitions (contiguous blocks of four nodes) the
    // global minimum over the partition matrix is the tiny intra-island
    // edge, while the per-destination fixpoint keeps the wide
    // inter-island edges.
    {
        const std::string island_app = "radix";
        const AppInfo &app = findApp(island_app);
        ExperimentConfig base;
        base.protocol = ProtocolKind::Hlrc;
        base.commSet = 'X';
        base.protoSet = 'O';
        base.numProcs = 16;
        MachineParams mp = base.machineParams();
        mp.comm = mp.comm.withIslands(8, 20000, 1.0);
        const std::string config_name = "XO+isl8";

        std::vector<Cell> cells;
        for (const int threads : {1, 4}) {
            mp.simThreads = threads;
            cells.push_back(runCell(
                app.factory, size, mp, config_name,
                island_app + " (" + config_name + ") with " +
                    std::to_string(threads) + " sim threads",
                o.reps, ok));
        }

        const Cell &serial = cells[0];
        const Cell &parallel = cells[1];
        const double serial_min = minOf(serial.seconds);
        for (const Cell &cell : cells) {
            if (cell.sig != serial.sig) {
                std::fprintf(stderr,
                             "FAIL: %s (%s) with %d sim threads diverges "
                             "from the serial kernel\n",
                             island_app.c_str(), config_name.c_str(),
                             cell.threads);
                ok = false;
            }
            const double best = minOf(cell.seconds);
            const double speedup = best > 0 ? serial_min / best : 0.0;
            std::printf("%-14s %8d %10.3f %10.3f %8.2fx\n",
                        (island_app + "/" + config_name).c_str(),
                        cell.threads, best, medianOf(cell.seconds),
                        speedup);
            writeCellJson(w, "islands", island_app, config_name, cell,
                          serial, speedup);
        }
        std::printf("  windows: %llu (widened %llu)\n",
                    static_cast<unsigned long long>(
                        parallel.windows.windows),
                    static_cast<unsigned long long>(
                        parallel.windows.widened));

        // The mechanism gate is deterministic (window counts depend
        // only on simulation state), so it runs on every host: the
        // matrix must widen windows past the global-minimum bound.
        if (parallel.windows.widened == 0) {
            std::fprintf(stderr,
                         "FAIL: per-destination cell never widened a "
                         "window past the global-minimum bound\n");
            ok = false;
        }
    }

    w.endArray();
    w.member("equivalent", ok);
    w.endObject();

    std::string dir = ".";
    if (const char *env = std::getenv("SWSM_BENCH_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_pdes.json";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fputs(w.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    return ok ? 0 : 1;
}
