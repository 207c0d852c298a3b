/**
 * @file
 * Measured parallelism budget: how many worker processes and sweep jobs
 * one machine should run.
 *
 * The sweep stack has two multiplicative parallelism knobs — worker
 * *processes* (the sweep server's --workers fan-out) and sweep *jobs*
 * (TaskPool threads running whole experiments). This module sizes both
 * from the host's core count and the grid size, so a two-item grid on
 * a 16-core host runs 2 jobs instead of 16 idle ones, and worker
 * processes are fed enough queueing jobs to stay busy.
 *
 * Rules (computeBudget):
 *  - Explicit flags are always authoritative (never overridden).
 *  - Auto workers match the core count, clamped to the grid size.
 *  - Auto jobs are clamped to the grid size (no point spawning more
 *    runners than experiments) and raised to at least the worker count
 *    (each queued job needs a submitting slot).
 *
 * Threads *inside* one simulation (sim/pdes.hh) are not budgeted: the
 * serial event kernel is the default, and a run is partitioned only
 * when --sim-threads or SWSM_SIM_THREADS asks for it.
 */

#ifndef SWSM_HARNESS_BUDGET_HH
#define SWSM_HARNESS_BUDGET_HH

namespace swsm
{

/** Upper bound on --workers (worker processes per server). */
constexpr int maxWorkerProcs = 256;

/** What the caller knows and what it already decided. */
struct BudgetRequest
{
    /** Host threads; 0 = measure (hardware_concurrency, min 1). */
    int hardwareThreads = 0;
    /** Experiments runnable concurrently; 0 = unknown (assume many). */
    int gridItems = 0;
    /** Requested sweep jobs; 0 = auto (hardware threads). */
    int jobs = 0;
    /** True when --jobs was given explicitly (never overridden). */
    bool jobsExplicit = false;
    /** Requested worker processes (server fan-out); 0 = none. */
    int workers = 0;
    /** True to pick the worker count from the measurement instead. */
    bool workersAuto = false;
};

/** The allocation: workers x jobs. */
struct Budget
{
    int workers = 0;
    int jobs = 1;
};

/** hardware_concurrency with a floor of 1 (it may report 0). */
int measuredHardwareThreads();

/** Allocate workers/jobs for @p req (see file comment). */
Budget computeBudget(const BudgetRequest &req);

} // namespace swsm

#endif // SWSM_HARNESS_BUDGET_HH
