#include "fuzz.hh"

#include "sim/rng.hh"

namespace swsm
{
namespace check
{

LitmusConfig
configForSeed(ProtocolKind protocol, std::uint64_t seed)
{
    // Distinct stream per (protocol, seed); the golden-ratio multiply
    // decorrelates consecutive seeds.
    Rng rng(seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(protocol) + 1);

    LitmusConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcs = 4;
    cfg.seed = seed;

    static constexpr std::uint32_t page_sizes[] = {1024, 2048, 4096};
    static constexpr std::uint32_t block_sizes[] = {32, 64, 128, 256};
    cfg.pageBytes = page_sizes[rng.nextBounded(3)];
    cfg.blockBytes = block_sizes[rng.nextBounded(4)];
    cfg.quantum = 200 + rng.nextBounded(3800);

    cfg.comm = CommParams::achievable();
    cfg.comm.hostOverhead = rng.nextBounded(1501);
    cfg.comm.niOccupancyPerPacket = rng.nextBounded(2001);
    cfg.comm.handlingCost = rng.nextBounded(801);
    cfg.comm.linkLatency = 1 + rng.nextBounded(100);

    cfg.proto = ProtoParams::original();
    cfg.proto.handlerBase = rng.nextBounded(3001);
    cfg.proto.pageProtectPerPage = rng.nextBounded(501);
    cfg.proto.pageProtectCall = rng.nextBounded(1001);
    cfg.proto.diffComparePerWord = rng.nextBounded(21);
    cfg.proto.diffWritePerWord = rng.nextBounded(21);
    cfg.proto.diffApplyPerWord = rng.nextBounded(21);
    cfg.proto.twinPerWord = rng.nextBounded(21);
    return cfg;
}

MachineParams
clusterMachineForSeed(ProtocolKind protocol, std::uint64_t seed)
{
    const LitmusConfig cfg = configForSeed(protocol, seed);
    // Independent stream for the cluster size, so it does not shift
    // the timing parameters a seed maps to.
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL +
            static_cast<std::uint64_t>(protocol));

    MachineParams mp;
    mp.protocol = protocol;
    mp.pageBytes = cfg.pageBytes;
    mp.blockBytes = cfg.blockBytes;
    mp.quantum = cfg.quantum;
    mp.comm = cfg.comm;
    mp.proto = cfg.proto;
    mp.seed = cfg.seed;
    static constexpr int procs[] = {4, 6, 8};
    mp.numProcs = procs[rng.nextBounded(3)];
    return mp;
}

std::vector<FuzzFailure>
replaySeed(ProtocolKind protocol, std::uint64_t seed,
           const FaultPlan &faults)
{
    LitmusConfig cfg = configForSeed(protocol, seed);
    cfg.faults = faults;
    std::vector<FuzzFailure> failures;
    for (const LitmusResult &r : runAllLitmus(cfg)) {
        if (!r.passed)
            failures.push_back(FuzzFailure{seed, r.test, r.detail});
    }
    return failures;
}

std::vector<FuzzFailure>
fuzz(const FuzzOptions &opts)
{
    std::vector<FuzzFailure> failures;
    for (int i = 0; i < opts.numSeeds; ++i) {
        const std::uint64_t seed = opts.baseSeed + i;
        auto f = replaySeed(opts.protocol, seed, opts.faults);
        failures.insert(failures.end(), f.begin(), f.end());
    }
    return failures;
}

} // namespace check
} // namespace swsm
