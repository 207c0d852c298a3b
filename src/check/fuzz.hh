/**
 * @file
 * Schedule fuzzer of the protocol conformance harness.
 *
 * A protocol bug that hides under one timing often shows under
 * another. The fuzzer derives a whole LitmusConfig — host overhead, NI
 * occupancy, handler cost jitter, quantum, page size and block
 * granularity — from a single seed via the simulator's deterministic
 * RNG, so every seed names one exact interleaving of every litmus
 * test. A failure report carries its seed; replaying the seed (same
 * binary, `--replay-seed=` in test_litmus) reproduces the run
 * bit-for-bit.
 */

#ifndef SWSM_CHECK_FUZZ_HH
#define SWSM_CHECK_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/litmus.hh"

namespace swsm
{
namespace check
{

/** What to fuzz and how hard. */
struct FuzzOptions
{
    ProtocolKind protocol = ProtocolKind::Sc;
    std::uint64_t baseSeed = 1;
    int numSeeds = 50;
    /** Protocol mutations injected into every run (self-test mode). */
    FaultPlan faults;
};

/** One fuzz failure: the seed is sufficient to replay it. */
struct FuzzFailure
{
    std::uint64_t seed = 0;
    std::string test;
    std::string detail;
};

/**
 * The deterministic seed → configuration map. Same (protocol, seed)
 * always yields the same timing parameters, page size and granularity.
 */
LitmusConfig configForSeed(ProtocolKind protocol, std::uint64_t seed);

/**
 * The cluster fuzz tier's seed → machine map: the timing perturbations
 * of configForSeed() plus a randomized cluster size of 4, 6 or 8
 * nodes. Deterministic per (protocol, seed); tests/test_fuzz.cc runs a
 * lock and false-sharing kernel on it, with every invariant live in a
 * SWSM_CHECK build.
 */
MachineParams clusterMachineForSeed(ProtocolKind protocol,
                                    std::uint64_t seed);

/**
 * Run the litmus suite under numSeeds perturbed configurations,
 * seeds [baseSeed, baseSeed + numSeeds). Returns every failure.
 */
std::vector<FuzzFailure> fuzz(const FuzzOptions &opts);

/**
 * Replay exactly one seed through the same code path as fuzz();
 * returns that seed's failures (empty when it passes).
 */
std::vector<FuzzFailure> replaySeed(ProtocolKind protocol,
                                    std::uint64_t seed,
                                    const FaultPlan &faults = {});

} // namespace check
} // namespace swsm

#endif // SWSM_CHECK_FUZZ_HH
