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
 * The data path is the same for every protocol and lives here. Each
 * node's access rights live in one AccessTable per node, kept by the
 * protocol where its unit states change. Thread checks a reference
 * against it inline and calls load()/store() only when that misses;
 * they copy one coherence unit's bytes (an HLRC page, an SC block;
 * Ideal's one unit spans the space) if the node holds the rights, and
 * otherwise hand the access to the protocol's fault(). A fault is all
 * that sets the protocols apart on this path: HLRC fetches and twins
 * a page, SC runs a directory transaction and performs the access when
 * its grant arrives, and Ideal never faults. Copies of remote units are
 * carved here and filled by install().
 *
 * load() and store() charge protocol costs only. The reference itself
 * costs the same under every protocol (the node's memory hierarchy is
 * fixed across experiments), so Thread charges it, once, after the
 * copy, and charges SC's optional software access check before it.
 */

#ifndef SWSM_PROTO_PROTOCOL_HH
#define SWSM_PROTO_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "comm/handler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "proto/access_table.hh"
#include "proto/address_space.hh"
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
     * Load from the coherence unit holding @p addr into @p out: copy
     * min(@p bytes, unit end - @p addr) bytes, through fault() when the
     * node lacks read rights, and return the number of bytes copied.
     * Charges protocol costs only: the caller charges the reference
     * after the copy.
     * @pre [addr, addr + bytes) lies inside the space's extent
     */
    std::uint64_t load(ProcEnv &env, GlobalAddr addr, void *out,
                       std::uint64_t bytes);

    /** Store into the coherence unit holding @p addr; see load(). */
    std::uint64_t store(ProcEnv &env, GlobalAddr addr, const void *in,
                        std::uint64_t bytes);

    /** Acquire lock @p lock (blocking). */
    virtual void acquire(ProcEnv &env, LockId lock) = 0;

    /** Release lock @p lock. */
    virtual void release(ProcEnv &env, LockId lock) = 0;

    /** Enter barrier @p barrier; returns when all threads arrived. */
    virtual void barrier(ProcEnv &env, BarrierId barrier) = 0;

    /**
     * Untimed, globally consistent read for verification; gathers the
     * current value wherever it lives. The default reads the home
     * store, which after a barrier is current under HLRC and Ideal.
     * @pre the machine is quiescent (e.g. after a barrier)
     */
    virtual void
    debugRead(GlobalAddr addr, void *out, std::uint64_t bytes)
    {
        space.initRead(addr, out, bytes);
    }

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
     * inline, and its hit and miss counts. Valid from prepareRun() to
     * the protocol's end.
     */
    AccessTable &accessTable(NodeId n) { return access_[n]; }

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
    /**
     * @param space shared address space (homes + home store)
     * @param procs per-node fiber environments, indexed by NodeId: one
     *        per node of @p space, and one access table each
     */
    Protocol(AddressSpace &space, std::vector<ProcEnv *> procs);

    /** Non-VC bytes of small protocol payloads (ids, counts). */
    static constexpr std::uint32_t smallPayload = 8;

    /**
     * A reference the node lacked the rights for: @p bytes at
     * @p offset into unit @p unit, read into or written from @p buf (a
     * store's buffer is only read).
     */
    struct Access
    {
        std::size_t unit;
        std::uint64_t offset;
        std::uint8_t *buf;
        std::uint64_t bytes;
        bool write;
    };

    /**
     * Obtain the rights @p access needs on env.node() and perform it
     * (perform()); return once it is done. Called by load() and store()
     * only: a load without read rights, a store without write rights.
     */
    virtual void fault(ProcEnv &env, const Access &access) = 0;

    /**
     * Check a node's rights to a unit against the protocol's own state
     * (SWSM_CHECK). load() and store() call it on every reference they
     * take; without SWSM_CHECK the call compiles to nothing.
     */
    virtual void checkRights(NodeId, std::size_t) const {}

    /** Copy @p access between @p n's copy of its unit and its buffer. */
    void perform(NodeId n, const Access &access);

    /**
     * Install a delivered unit on node @p n: copy the unit's bytes from
     * @p bytes into n's copy of unit @p u (carved on first delivery; an
     * invalidated copy keeps its place and is reused), give it rights
     * @p r, and drop n's cached lines of the unit, as a coherent DMA
     * deposit does.
     */
    void install(NodeId n, std::size_t u, const std::uint8_t *bytes,
                 Rights r);

    /**
     * Send a request message, counting it in proto.msgs/proto.bytes.
     * @p fn is the handler's closure; it must fit HandlerFn inline, so
     * no protocol message heap-allocates its callback.
     */
    template <typename F>
    void
    sendReq(NodeEnv &env, NodeId dst, std::uint32_t bytes, F &&fn,
            TimeBucket bucket)
    {
        static_assert(HandlerFn::storesInline<std::decay_t<F>>(),
                      "request closure outgrew HandlerFn's inline storage");
        stats_.protoMsgs.inc();
        stats_.protoBytes.inc(bytes);
        env.sendRequest(dst, bytes, HandlerFn(std::forward<F>(fn)), bucket);
    }

    /** Send a data message, counting it like sendReq(). */
    template <typename F>
    void
    sendDat(NodeEnv &env, NodeId dst, std::uint32_t bytes, F &&fn,
            TimeBucket bucket)
    {
        static_assert(DataFn::storesInline<std::decay_t<F>>(),
                      "data closure outgrew DataFn's inline storage");
        stats_.protoMsgs.inc();
        stats_.protoBytes.inc(bytes);
        env.sendData(dst, bytes, DataFn(std::forward<F>(fn)), bucket);
    }

    AddressSpace &space;
    std::vector<ProcEnv *> procs;
    int numNodes;

    ProtoStats stats_;
    Tracer *trace_ = nullptr;
    /** Per node, its rights to every unit: the protocol's only record
     *  of them (sized by prepareRun). */
    std::vector<AccessTable> access_;

  private:
    /**
     * load() and store(): perform the part of the reference inside the
     * unit holding @p addr, or fault() it, and return its length.
     */
    std::uint64_t reference(ProcEnv &env, GlobalAddr addr,
                            std::uint8_t *buf, std::uint64_t bytes,
                            bool write);

    /**
     * A fresh unit-sized copy for a non-home node. Copies are carved
     * from chunks and live as long as the protocol, so AddressSanitizer
     * bounds a chunk, not one copy.
     */
    std::uint8_t *carveCopy(std::uint64_t unit_bytes);

    /** Chunks that carveCopy() carves copies from. */
    std::vector<std::unique_ptr<std::uint8_t[]>> copyChunks;
    std::uint8_t *copyNext = nullptr; ///< next free copy in the last chunk
    std::size_t copyFree = 0;         ///< bytes left in the last chunk
};

} // namespace swsm

#endif // SWSM_PROTO_PROTOCOL_HH
