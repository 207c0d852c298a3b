/**
 * @file
 * The coherence protocol interface between machine and protocol layers.
 *
 * A Protocol implements the shared-address-space programming model on a
 * cluster: timed reads/writes with access control, and lock/barrier
 * synchronization. Calls run on the application fiber of the invoking
 * processor, receive a ProcEnv for time charging / blocking / messaging,
 * and move real bytes (applications compute correct results only if the
 * protocol is correct).
 */

#ifndef SWSM_PROTO_PROTOCOL_HH
#define SWSM_PROTO_PROTOCOL_HH

#include <cstdint>

#include "comm/handler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "proto/proto_stats.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

class FastPath;

/**
 * Application-fiber execution environment: NodeEnv plus the ability to
 * block the calling thread and model its shared-reference costs.
 * Implemented by the machine layer's Node.
 */
class ProcEnv : public NodeEnv
{
  public:
    /**
     * Charge one shared memory reference at @p addr: the 1-IPC issue
     * cycle (Busy) plus any local cache stall (StallLocal).
     */
    virtual void chargeSharedAccess(GlobalAddr addr, bool write) = 0;

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

    /**
     * The node's access fast path (machine/fast_path.hh), or null when
     * disabled. Protocols that support it configure the table at
     * construction, install entries on slow-path hits and invalidate
     * them on every state transition; protocols that return entries
     * here must keep them coherent or not install at all.
     */
    virtual FastPath *fastPath() { return nullptr; }
};

/** Abstract software shared-memory protocol. */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    /** Protocol name ("hlrc", "sc", "ideal"). */
    virtual const char *name() const = 0;

    /**
     * Timed read of @p bytes at @p addr into @p out. @p bytes must not
     * cross a coherence-unit boundary for the single-access form; use
     * readRange for arbitrary extents.
     */
    virtual void read(ProcEnv &env, GlobalAddr addr, void *out,
                      std::uint32_t bytes) = 0;

    /** Timed write; the mirror of read(). */
    virtual void write(ProcEnv &env, GlobalAddr addr, const void *in,
                       std::uint32_t bytes) = 0;

    /** Timed bulk read of an arbitrary extent. */
    virtual void readRange(ProcEnv &env, GlobalAddr addr, void *out,
                           std::uint64_t bytes) = 0;

    /** Timed bulk write; see readRange(). */
    virtual void writeRange(ProcEnv &env, GlobalAddr addr, const void *in,
                            std::uint64_t bytes) = 0;

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
     * True when every protocol action touches only the state of the
     * node it executes on (cross-node effects flow exclusively through
     * simulated messages). Required for the parallel event engine
     * (sim/pdes.hh); protocols that reach across nodes directly (Ideal)
     * return false and always run serially.
     */
    virtual bool partitionSafe() const { return false; }

    /**
     * Size the protocol's shared tables for a run: page and directory
     * tables for the allocated space, and per-lock and per-barrier
     * state for ids in [0, num_locks) and [0, num_barriers). These are
     * the only places the tables grow, so no accessor ever grows one
     * mid-run (growth would race across partitions); Thread rejects
     * any other id. Also remembers the partition count, so checks that
     * legitimately scan other nodes' state can be confined to
     * single-partition runs. Called by the machine layer before every
     * run (with partitions == 1 for serial runs), and again after a
     * parallel run completes so post-run verification sees the serial
     * view; sizing must therefore be idempotent and keep existing state.
     */
    virtual void prepareRun(int partitions, int num_locks,
                            int num_barriers)
    {
        (void)partitions;
        (void)num_locks;
        (void)num_barriers;
    }

    /** Protocol event counters. */
    const ProtoStats &stats() const { return stats_; }

    /** Reset event counters (harness: between warmup and timed phase). */
    void resetStats() { stats_.reset(); }

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
    ProtoStats stats_;
    Tracer *trace_ = nullptr;
};

} // namespace swsm

#endif // SWSM_PROTO_PROTOCOL_HH
