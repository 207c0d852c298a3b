#include "experiment.hh"

#include <chrono>

#include "sim/log.hh"

namespace swsm
{

std::string
ExperimentConfig::name() const
{
    if (protocol == ProtocolKind::Ideal)
        return "Ideal";
    return std::string(1, commSet) + std::string(1, protoSet);
}

MachineParams
ExperimentConfig::machineParams() const
{
    if (simThreads != 1)
        SWSM_FATAL("simThreads must be 1 (every run is serial), got %d",
                   simThreads);
    MachineParams mp;
    mp.numProcs = numProcs;
    mp.protocol = protocol;
    mp.comm = CommParams::fromName(commSet);
    mp.proto = ProtoParams::fromName(protoSet);
    mp.blockBytes = blockBytes;
    mp.accessCheckCycles = accessCheckCycles;
    mp.trace = trace;
    return mp;
}

ExperimentResult
runExperiment(const WorkloadFactory &factory, SizeClass size,
              const ExperimentConfig &config, Cycles seq_cycles)
{
    return runExperiment(factory, size, config.machineParams(),
                         config.name(), seq_cycles);
}

ExperimentResult
runExperiment(const WorkloadFactory &factory, SizeClass size,
              const MachineParams &mp, const std::string &config_name,
              Cycles seq_cycles)
{
    const auto host_start = std::chrono::steady_clock::now();
    auto workload = factory(size);
    Cluster cluster(mp);
    workload->setup(cluster);
    cluster.run([&](Thread &t) { workload->body(t); });

    ExperimentResult r;
    r.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    r.workload = workload->name();
    r.config = config_name;
    r.protocol = protocolKindName(mp.protocol);
    r.parallelCycles = cluster.stats().totalCycles;
    r.sequentialCycles = seq_cycles;
    r.verified = workload->verify(cluster);
    r.stats = cluster.stats();
    r.trace = cluster.takeTrace();
    if (!r.verified)
        SWSM_WARN("%s failed verification under %s/%s",
                  r.workload.c_str(), r.protocol.c_str(),
                  r.config.c_str());
    return r;
}

Cycles
runSequentialBaseline(const WorkloadFactory &factory, SizeClass size,
                      bool *verified)
{
    auto workload = factory(size);
    MachineParams mp;
    mp.numProcs = 1;
    mp.protocol = ProtocolKind::Ideal;
    Cluster cluster(mp);
    workload->setup(cluster);
    cluster.run([&](Thread &t) { workload->body(t); });
    const bool ok = workload->verify(cluster);
    if (verified)
        *verified = ok;
    if (!ok)
        SWSM_WARN("%s failed verification in the sequential baseline",
                  workload->name());
    return cluster.stats().totalCycles;
}

} // namespace swsm
