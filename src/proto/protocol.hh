/**
 * @file
 * The coherence protocol interface between machine and protocol layers.
 *
 * A Protocol implements the shared-address-space programming model on a
 * cluster: access control for loads and stores, and lock/barrier
 * synchronization. Calls run on the application fiber of the invoking
 * processor, receive a ProcEnv for time charging / blocking / messaging,
 * and move real bytes (applications compute correct results only if the
 * protocol is correct).
 *
 * A load or store moves one coherence unit's bytes (Ideal: any
 * extent) and charges only what the protocol costs (faults, fetches,
 * twins, ownership transfers). The reference itself costs the same
 * under every protocol (the node's memory hierarchy is fixed across
 * experiments), so Thread charges it, once, after the copy.
 *
 * Each node's access rights live in one AccessTable per node, owned
 * here and kept by the protocol where its unit states change. Thread
 * checks a reference against it inline and calls load()/store() only
 * when the node lacks the rights (proto/access_table.hh).
 */

#ifndef SWSM_PROTO_PROTOCOL_HH
#define SWSM_PROTO_PROTOCOL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "comm/handler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "proto/access_table.hh"
#include "proto/proto_stats.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

/**
 * Application-fiber execution environment: NodeEnv plus the ability to
 * block the calling thread. Implemented by the machine layer's Node.
 */
class ProcEnv : public NodeEnv
{
  public:
    /**
     * Block the calling fiber; time until unblock() is attributed to
     * @p wait_kind (minus protocol handler time stolen meanwhile).
     * Pending handlers are drained before blocking.
     */
    virtual void block(TimeBucket wait_kind) = 0;

    /**
     * Resume the fiber no earlier than @p t (and no earlier than any
     * handler occupancy of the processor). Callable from handler or
     * data-delivery context.
     */
    virtual void unblock(Cycles t) = 0;
};

/** Abstract software shared-memory protocol. */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    /** Protocol name ("hlrc", "sc", "ideal"). */
    virtual const char *name() const = 0;

    /**
     * Load from the coherence unit (HLRC page, SC block) holding
     * @p addr into @p out. Takes the fault, fetch or ownership transfer
     * the access needs, copies min(@p bytes, unit end - @p addr) bytes
     * (Ideal: all @p bytes) and returns the number of bytes copied.
     * Charges protocol costs only: the caller charges the reference
     * after the copy.
     * @pre [addr, addr + bytes) lies inside the space's extent
     */
    virtual std::uint64_t load(ProcEnv &env, GlobalAddr addr, void *out,
                               std::uint64_t bytes) = 0;

    /** Store into the coherence unit holding @p addr; see load(). */
    virtual std::uint64_t store(ProcEnv &env, GlobalAddr addr,
                                const void *in, std::uint64_t bytes) = 0;

    /** Acquire lock @p lock (blocking). */
    virtual void acquire(ProcEnv &env, LockId lock) = 0;

    /** Release lock @p lock. */
    virtual void release(ProcEnv &env, LockId lock) = 0;

    /** Enter barrier @p barrier; returns when all threads arrived. */
    virtual void barrier(ProcEnv &env, BarrierId barrier) = 0;

    /**
     * Untimed, globally consistent read for verification; gathers the
     * current value wherever it lives (home or owner copy).
     * @pre the machine is quiescent (e.g. after a barrier)
     */
    virtual void debugRead(GlobalAddr addr, void *out,
                           std::uint64_t bytes) = 0;

    /**
     * Verify end-of-run quiescence invariants (no transaction in
     * flight, no pending acks, sync state drained). Called by the
     * machine layer after the event queue drains when invariant
     * checking is enabled (SWSM_CHECK); throws
     * check::InvariantViolation on failure.
     */
    virtual void checkQuiescent() const {}

    /**
     * Size the protocol's shared tables for a run: page and directory
     * tables for the allocated space, and per-lock and per-barrier
     * state for ids in [0, num_locks) and [0, num_barriers). Called
     * once, by the machine layer before the run; no accessor grows a
     * table mid-run, and Thread rejects any other id.
     */
    virtual void prepareRun(int num_locks, int num_barriers)
    {
        (void)num_locks;
        (void)num_barriers;
    }

    /**
     * Node @p n's access table, for Thread to check references against
     * inline; null when every reference must take load()/store() (SC
     * with a per-reference access-check charge, which comes before the
     * hit test). Valid from prepareRun() to the protocol's end.
     */
    AccessTable *
    inlineTable(NodeId n)
    {
        return offersInline_ ? &access_[n] : nullptr;
    }

    /** Node @p n's access table (its hit and miss counts). */
    const AccessTable &accessTable(NodeId n) const { return access_[n]; }

    /** Protocol event counters. */
    const ProtoStats &stats() const { return stats_; }

    /**
     * Enable event tracing (faults, fetches, diffs, sync episodes).
     * Null (the default) disables it; emission sites branch on the
     * pointer, so a disabled tracer costs nothing measurable.
     */
    void setTracer(Tracer *tracer) { trace_ = tracer; }

    /**
     * Register every ProtoStats counter under "proto.*". Protocols
     * override to append protocol-specific metrics (calling the base
     * first so the common counters keep their names).
     */
    virtual void registerMetrics(MetricsRegistry &registry) const;

  protected:
    /** @param num_nodes the cluster size: one access table per node */
    explicit Protocol(int num_nodes) : access_(num_nodes) {}

    /** Send a request message, counting it in proto.msgs/proto.bytes. */
    void
    sendReq(NodeEnv &env, NodeId dst, std::uint32_t bytes, HandlerFn fn,
            TimeBucket bucket)
    {
        stats_.protoMsgs.inc();
        stats_.protoBytes.inc(bytes);
        env.sendRequest(dst, bytes, std::move(fn), bucket);
    }

    /** Send a data message, counting it like sendReq(). */
    void
    sendDat(NodeEnv &env, NodeId dst, std::uint32_t bytes, DataFn fn,
            TimeBucket bucket)
    {
        stats_.protoMsgs.inc();
        stats_.protoBytes.inc(bytes);
        env.sendData(dst, bytes, std::move(fn), bucket);
    }

    ProtoStats stats_;
    Tracer *trace_ = nullptr;
    /** Per node, its rights to every unit: the protocol's only record
     *  of them (sized by prepareRun). */
    std::vector<AccessTable> access_;
    /** See inlineTable(). */
    bool offersInline_ = true;
};

} // namespace swsm

#endif // SWSM_PROTO_PROTOCOL_HH
