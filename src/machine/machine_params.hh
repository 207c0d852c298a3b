/**
 * @file
 * Configuration of a simulated cluster machine.
 */

#ifndef SWSM_MACHINE_MACHINE_PARAMS_HH
#define SWSM_MACHINE_MACHINE_PARAMS_HH

#include <cstdint>

#include "mem/memory_params.hh"
#include "net/comm_params.hh"
#include "proto/proto_params.hh"
#include "sim/types.hh"

namespace swsm
{

/** Which software shared-memory protocol the machine runs. */
enum class ProtocolKind
{
    Hlrc,  ///< page-based SVM (home-based lazy release consistency)
    Sc,    ///< fine-/variable-grained sequentially consistent protocol
    Ideal, ///< zero-cost shared memory (algorithmic limit / sequential)
};

/** Printable protocol name. */
const char *protocolKindName(ProtocolKind kind);

/**
 * Default for MachineParams::fastPath: true unless the environment
 * sets SWSM_FASTPATH=0 (the escape hatch for A/B timing comparisons
 * and for bisecting a suspected fast-path divergence).
 */
bool defaultFastPath();

/** Full configuration of one simulated cluster. */
struct MachineParams
{
    /** Cluster size (uniprocessor nodes). The paper uses 16. */
    int numProcs = 16;
    /** Protocol selection. */
    ProtocolKind protocol = ProtocolKind::Hlrc;
    /** Communication layer costs (Table 2). */
    CommParams comm;
    /** Protocol layer costs (Table 3). */
    ProtoParams proto;
    /** Node memory hierarchy (fixed across the paper's experiments). */
    MemoryParams mem;
    /** SVM page size. */
    std::uint32_t pageBytes = 4096;
    /** SC coherence block size (per-application best granularity). */
    std::uint32_t blockBytes = 64;
    /**
     * Local-execution quantum: a fiber yields to the event loop at
     * least this often, which is also the polling granularity for
     * incoming request handlers (back-edge polling model).
     */
    Cycles quantum = 1000;
    /**
     * Optional per-reference software access-control (instrumentation)
     * cost, SC only: Thread charges it to ProtoOther before the inline
     * check of each reference or unit chunk. 0 reproduces the paper's
     * hardware-access-control assumption; Cluster rejects a nonzero
     * cost under HLRC or Ideal, which have no per-reference check.
     */
    Cycles accessCheckCycles = 0;
    /**
     * Record protocol/network/sync events for Chrome trace_event
     * export. Off by default: emission sites then see a null tracer
     * and cost nothing measurable.
     */
    bool trace = false;
    /**
     * Thread checks each reference against the protocol's access
     * table inline (proto/access_table.hh); off, every reference takes
     * Protocol::load/store. Purely a host-side choice: simulated
     * cycles and protocol counters are bit-identical either way.
     * Defaults from SWSM_FASTPATH.
     */
    bool fastPath = defaultFastPath();
    /** Seed for all randomized decisions (bit-reproducible runs). */
    std::uint64_t seed = 12345;
    /** Application fiber stack size. */
    std::size_t stackBytes = 1024 * 1024;
};

} // namespace swsm

#endif // SWSM_MACHINE_MACHINE_PARAMS_HH
