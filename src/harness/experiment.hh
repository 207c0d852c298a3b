/**
 * @file
 * Experiment driver: runs one workload on one machine configuration and
 * reports speedups against the sequential baseline.
 *
 * Configuration naming follows the paper: a communication set letter
 * (A achievable, H halfway, B best, W worse, X better-than-best) paired
 * with a protocol cost set letter (O original, H halfway, B best) —
 * "AO" is the base system; "Ideal" is the algorithmic limit.
 */

#ifndef SWSM_HARNESS_EXPERIMENT_HH
#define SWSM_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>

#include "apps/workload.hh"
#include "machine/machine_params.hh"
#include "machine/run_stats.hh"
#include "obs/trace.hh"

namespace swsm
{

/** One experiment's machine settings. */
struct ExperimentConfig
{
    /** Protocol under test (Hlrc or Sc; Ideal for the limit bars). */
    ProtocolKind protocol = ProtocolKind::Hlrc;
    /** Communication set letter: A, H, B, W or X. */
    char commSet = 'A';
    /** Protocol cost set letter: O, H or B. */
    char protoSet = 'O';
    /** Cluster size. */
    int numProcs = 16;
    /** SC block granularity (per-application best). */
    std::uint32_t blockBytes = 64;
    /** Optional per-access instrumentation cost for SC. */
    Cycles accessCheckCycles = 0;
    /** Record an event trace (see MachineParams::trace). */
    bool trace = false;
    /**
     * Must stay 1: every run is serial, and machineParams() throws
     * FatalError for any other value. The field is left only because
     * swsmbench/workloads.cc assigns it; ROADMAP item 8, the next
     * change to the benchmark, deletes it.
     */
    int simThreads = 1;

    /** Two-letter name ("AO", "BB", ...) or "Ideal". */
    std::string name() const;

    /** Expand into full machine parameters. */
    MachineParams machineParams() const;
};

/** Result of one timed run plus its baseline. */
struct ExperimentResult
{
    std::string workload;
    std::string config;
    std::string protocol;
    Cycles parallelCycles = 0;
    Cycles sequentialCycles = 0;
    bool verified = false;
    /**
     * Host wall-clock seconds spent simulating this experiment (for a
     * memo replay, those of the run that stored it).
     */
    double hostSeconds = 0.0;
    RunStats stats;
    /**
     * Recorded events (empty buffer unless the config asked to trace;
     * null for a memo replay, which never traces).
     */
    std::shared_ptr<const TraceBuffer> trace;

    double
    speedup() const
    {
        return parallelCycles
            ? static_cast<double>(sequentialCycles) /
                  static_cast<double>(parallelCycles)
            : 0.0;
    }
};

/**
 * Run @p factory's workload under @p config; measures the parallel run
 * and verifies the output.
 * @param seq_cycles sequential baseline (from runSequentialBaseline),
 *        stored into the result for speedup computation.
 */
ExperimentResult runExperiment(const WorkloadFactory &factory,
                               SizeClass size,
                               const ExperimentConfig &config,
                               Cycles seq_cycles);

/**
 * Run @p factory's workload on fully custom machine parameters (for
 * ablations and per-parameter sensitivity sweeps that step outside the
 * paper's named sets). @p config_name labels the result.
 */
ExperimentResult runExperiment(const WorkloadFactory &factory,
                               SizeClass size, const MachineParams &mp,
                               const std::string &config_name,
                               Cycles seq_cycles);

/**
 * Run the workload on a 1-processor Ideal machine: the best sequential
 * version all speedups are measured against.
 * @param verified if non-null, set to whether the output verified
 */
Cycles runSequentialBaseline(const WorkloadFactory &factory,
                             SizeClass size, bool *verified = nullptr);

} // namespace swsm

#endif // SWSM_HARNESS_EXPERIMENT_HH
