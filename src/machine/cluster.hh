/**
 * @file
 * The simulated cluster machine: the library's main entry point.
 *
 * A Cluster wires together the event queue, the interconnect, the
 * message layer, the shared address space and a coherence protocol, and
 * runs one SPMD application body on every node's fiber. Shared data is
 * allocated and initialized before run(); results are verified with
 * untimed debug reads afterwards.
 *
 * Typical use:
 * @code
 *   MachineParams mp;                     // 16 nodes, HLRC, set A/O
 *   Cluster cluster(mp);
 *   SharedArray<double> a(cluster, n);    // allocate + init shared data
 *   ...
 *   cluster.run([&](Thread &t) { ... }); // SPMD body on every node
 *   RunStats stats = cluster.stats();     // time + breakdowns
 * @endcode
 */

#ifndef SWSM_MACHINE_CLUSTER_HH
#define SWSM_MACHINE_CLUSTER_HH

#include <functional>
#include <memory>
#include <vector>

#include "comm/msg_layer.hh"
#include "machine/machine_params.hh"
#include "machine/node.hh"
#include "machine/run_stats.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "proto/address_space.hh"
#include "proto/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/pdes.hh"

namespace swsm
{

class Thread;

/** A simulated software-shared-memory cluster. */
class Cluster
{
  public:
    explicit Cluster(const MachineParams &params);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const MachineParams &params() const { return params_; }
    int numProcs() const { return params_.numProcs; }

    /** The shared address space (for allocation and home placement). */
    AddressSpace &space() { return *space_; }

    /** Allocate shared memory (round-robin page homes). */
    GlobalAddr alloc(std::uint64_t bytes, std::uint64_t align = 64);
    /** Allocate page-aligned shared memory homed at @p home. */
    GlobalAddr allocAt(std::uint64_t bytes, NodeId home);

    /** Allocate a lock id (before run(), like shared memory). */
    LockId allocLock();
    /** Allocate a barrier id (before run()). */
    BarrierId allocBarrier();
    /** Number of allocated locks: the valid ids are [0, numLocks()). */
    int numLocks() const { return nextLock; }
    /** Number of allocated barriers: ids [0, numBarriers()). */
    int numBarriers() const { return nextBarrier; }

    /** Untimed initialization write (before run()). */
    void initWrite(GlobalAddr addr, const void *src, std::uint64_t bytes);
    /** Untimed, globally consistent read (after run()). */
    void debugRead(GlobalAddr addr, void *dst, std::uint64_t bytes);

    /**
     * Run @p body as an SPMD program: one thread per node. Returns when
     * every thread finished. Fails (FatalError) on deadlock.
     *
     * Taken by value so callers can move a closure in; run() outlives
     * every use of the body, which each node's fiber borrows.
     *
     * When params().simThreads > 1 and the run qualifies (see
     * MachineParams::simThreads), the event queue is driven by the
     * parallel engine (sim/pdes.hh) with nodes partitioned across
     * worker threads; results are bit-identical to a serial run.
     */
    void run(std::function<void(Thread &)> body);

    /** Results of the last run(). */
    const RunStats &stats() const { return stats_; }

    /** The active protocol (tests inspect its counters). */
    Protocol &protocol() { return *protocol_; }

    /** Node access for tests/instrumentation. */
    Node &node(NodeId n) { return *nodes.at(n); }

    /** The cluster's network (endpoint contention statistics). */
    Network &network() { return *network_; }

    /** The event tracer, or null when params().trace is off. */
    Tracer *tracer() { return tracer_.get(); }

    /**
     * Move the recorded trace out (empty buffer when tracing was off).
     * The shared_ptr form lets results outlive the cluster cheaply.
     */
    std::shared_ptr<const TraceBuffer> takeTrace();

  private:
    MachineParams params_;
    EventQueue eq;
    std::unique_ptr<Network> network_;
    std::unique_ptr<MsgLayer> msg;
    std::unique_ptr<AddressSpace> space_;
    std::vector<std::unique_ptr<Node>> nodes;
    std::unique_ptr<Protocol> protocol_;
    LockId nextLock = 0;
    BarrierId nextBarrier = 0;
    MetricsRegistry registry_;
    std::unique_ptr<Tracer> tracer_;
    RunStats stats_;
    /** Parallel-engine stats of the last run (zeros for serial runs). */
    PdesRunStats pdesStats_;
    bool ran = false;
};

} // namespace swsm

#endif // SWSM_MACHINE_CLUSTER_HH
