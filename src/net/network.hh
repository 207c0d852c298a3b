/**
 * @file
 * Myrinet-like cluster interconnect with endpoint contention.
 *
 * Each node owns a NIC with an I/O bus and an NI processor, both modeled
 * as FCFS resources. A message moves through a per-packet pipeline:
 *
 *   sender I/O bus -> sender NI occupancy -> wire (fixed latency +
 *   bandwidth, contention-free) -> receiver NI occupancy -> receiver
 *   I/O bus -> delivery callback
 *
 * Host overhead (the CPU-side send cost) is charged by the *caller* (the
 * sending processor's fiber), because it occupies the host CPU, not the
 * network; the network receives the message once the overhead has been
 * paid. Packets of one message are pipelined; messages between the same
 * (src, dst) pair are delivered in FIFO order (VMMC channel semantics),
 * which the coherence protocols rely on.
 */

#ifndef SWSM_NET_NETWORK_HH
#define SWSM_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/comm_params.hh"
#include "net/fcfs_resource.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

/** Invoked when the last byte of a message lands in host memory. */
using DeliverFn = std::function<void(Cycles delivery_time)>;

/** Per-node network interface state. */
struct Nic
{
    /** Shared host-to-NI I/O bus (both directions contend). */
    FcfsResource ioBus;
    /** The NI's (slow) packet processor; one per NIC, as in Myrinet. */
    FcfsResource niProc;
};

/**
 * The cluster interconnect: N NICs plus contention-free wires.
 */
class Network
{
  public:
    /**
     * @param eq event queue driving the simulation
     * @param num_nodes cluster size
     * @param params communication cost parameters
     */
    Network(EventQueue &eq, int num_nodes, const CommParams &params);

    /**
     * Inject a message. @p ready_time must already include the sender's
     * host overhead (charged to the sending processor by the caller).
     * @param on_delivered runs when the full message is in dst's memory.
     */
    void send(NodeId src, NodeId dst, std::uint32_t bytes,
              Cycles ready_time, DeliverFn on_delivered);

    /** Loopback-free check; self-sends bypass the wire (local dispatch). */
    int numNodes() const { return static_cast<int>(nics.size()); }

    const CommParams &params() const { return params_; }
    Nic &nic(NodeId node) { return *nics.at(node); }

    const Counter &messagesSent() const { return messages; }
    const Counter &bytesSent() const { return bytes_; }

    /**
     * Verify end-of-run conservation: every injected message was
     * delivered and every FIFO channel drained in order. Called by the
     * machine layer after the event queue drains when invariant
     * checking is enabled (SWSM_CHECK); throws
     * check::InvariantViolation on failure.
     */
    void checkDrained() const;

    /**
     * Enable event tracing: every message becomes a complete event on
     * the sender's track (injection to last-byte delivery). Null (the
     * default) disables tracing at the cost of one branch per send.
     */
    void setTracer(Tracer *tracer) { trace_ = tracer; }

    /**
     * Register network totals and endpoint-resource metrics under
     * "net.*". Per-node resources are aggregated across the (symmetric)
     * NICs: net.iobus.* and net.ni.* carry cluster-wide sums and merged
     * histograms.
     */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    /** Cycles to move @p bytes over a bandwidth in bytes/cycle. */
    static Cycles transferCycles(std::uint32_t bytes, double bytes_per_cycle);

    /**
     * Per-(src, dst) FIFO channel: messages are delivered in injection
     * order even when a small message would overtake a large one on the
     * contention-free wire (VMMC/wormhole channel semantics).
     */
    struct Channel
    {
        std::uint64_t nextAssign = 0;
        std::uint64_t nextDeliver = 0;
        Cycles lastTime = 0;
        /** Completed-but-unordered messages keyed by sequence. */
        std::map<std::uint64_t, std::pair<Cycles, DeliverFn>> done;
    };

    /** Message pipeline finished; deliver respecting channel order. */
    void complete(Channel &ch, std::uint64_t seq, Cycles t, DeliverFn cb);

    EventQueue &eq;
    CommParams params_;
    std::vector<std::unique_ptr<Nic>> nics;
    std::vector<Channel> channels;

    Counter messages;
    Counter bytes_;
    Counter delivered_;
    Tracer *trace_ = nullptr;
};

} // namespace swsm

#endif // SWSM_NET_NETWORK_HH
