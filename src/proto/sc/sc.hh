/**
 * @file
 * Fine-/variable-grained sequentially consistent protocol (SC).
 *
 * A Stache-like directory protocol in the style of many hardware DSM
 * implementations, as used in the paper: sequential consistency at a
 * per-application power-of-two block granularity, software handlers on
 * the main processor, and — following the paper's explicit assumption —
 * *zero-cost* hardware access control (the state check itself is free;
 * an optional per-access instrumentation cost is provided as an
 * extension for Shasta-style software access control studies).
 *
 * Directory (at each block's home): Idle / Shared(sharers) /
 * Excl(owner), with forwarding for 3-hop misses, invalidation-ack
 * collection for writes, and a busy/waiter queue serializing racing
 * requests per block. Caches of remote data live in node memory and are
 * unbounded (Stache uses local DRAM as the cache).
 *
 * Each node's block states are its access table (proto/access_table.hh).
 * A non-home node's rights change where its copy is granted, recalled
 * or invalidated. A home's rights are its directory entry's: none
 * while a transaction is in flight, and after it the rights the entry
 * leaves the home (homeRights()).
 */

#ifndef SWSM_PROTO_SC_SC_HH
#define SWSM_PROTO_SC_SC_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "proto/address_space.hh"
#include "proto/proto_params.hh"
#include "proto/protocol.hh"
#include "sim/inline_fn.hh"

namespace swsm
{

/** The paper's fine-grained sequentially consistent protocol. */
class ScProtocol : public Protocol
{
  public:
    /**
     * @param space shared address space (block homes + home store)
     * @param params protocol costs (handler cost; the rest unused by SC)
     * @param procs per-node fiber environments
     * @param access_check_cycles optional per-reference instrumentation
     *        cost (0 = the paper's hardware access control assumption)
     */
    ScProtocol(AddressSpace &space, const ProtoParams &params,
               std::vector<ProcEnv *> procs,
               Cycles access_check_cycles = 0);

    const char *name() const override { return "sc"; }

    std::uint64_t load(ProcEnv &env, GlobalAddr addr, void *out,
                       std::uint64_t bytes) override;
    std::uint64_t store(ProcEnv &env, GlobalAddr addr, const void *in,
                        std::uint64_t bytes) override;
    void acquire(ProcEnv &env, LockId lock) override;
    void release(ProcEnv &env, LockId lock) override;
    void barrier(ProcEnv &env, BarrierId barrier) override;
    void debugRead(GlobalAddr addr, void *out,
                   std::uint64_t bytes) override;
    void checkQuiescent() const override;

    void prepareRun(int num_locks, int num_barriers) override;

  private:
    /**
     * A faulting access performed at install time: load()'s and
     * store()'s closures (this, a node, an address, a buffer pointer
     * and a length) fit its 40 inline bytes.
     */
    using ApplyFn = InlineFn<void(), 40>;

    /** Directory entry at a block's home. */
    struct DirEntry
    {
        enum class DState : std::uint8_t { Idle, Shared, Excl };

        DState state = DState::Idle;
        std::uint32_t sharers = 0; ///< bitmask; numNodes <= 32
        NodeId owner = invalidNode;
        bool busy = false;         ///< a transaction is in flight
        int pendingAcks = 0;
        NodeId requester = invalidNode;
        bool reqWrite = false;
        /** Requests that found the entry busy, oldest first: at most
         *  one per (blocking) node, so a vector popped at the front. */
        std::vector<std::pair<NodeId, bool>> waiters;
    };

    /** Per-lock manager state (centralized FIFO queue lock). */
    struct LockState
    {
        bool held = false;
        NodeId holder = invalidNode;
        /** Waiting nodes, oldest first (at most numNodes). */
        std::vector<NodeId> queue;
    };

    /** Per-barrier manager state (centralized counter). */
    struct BarrierState
    {
        int arrived = 0;
    };

    DirEntry &dirEntry(BlockId b);

    /** Pointer to the current bytes of @p b as seen by node @p n. */
    std::uint8_t *localBytes(NodeId n, GlobalAddr addr);

    /** The rights directory entry @p d leaves its block's @p home. */
    static Rights homeRights(const DirEntry &d, NodeId home);

    /**
     * A fresh block-sized copy for a non-home node. Copies are carved
     * from chunks and live as long as the protocol: an invalidated
     * copy keeps its place in the access table, so a refetch reuses it.
     */
    std::uint8_t *newCopy();

    /**
     * Run a miss transaction for (env.node(), b); blocks the fiber.
     * @p apply performs the faulting access and runs at install time
     * (when the grant reaches the node), which guarantees every miss
     * completes its access even under heavy block ping-pong — a
     * blocking-SC processor cannot be starved by invalidations racing
     * its resumption.
     */
    template <typename F>
    void
    miss(ProcEnv &env, BlockId b, bool write, F &&apply)
    {
        static_assert(ApplyFn::storesInline<std::decay_t<F>>(),
                      "install-time access outgrew ApplyFn's inline "
                      "storage");
        pendingApply[env.node()].emplace(std::forward<F>(apply));
        startMiss(env, b, write);
    }

    /** Send @p env's miss request for @p b and block until granted. */
    void startMiss(ProcEnv &env, BlockId b, bool write);

    /** Run and clear node @p n's pending install-time access. */
    void runPendingApply(NodeId n);

    /** Home-side request processing (may start or queue a transaction). */
    void handleRequest(NodeEnv &henv, BlockId b, NodeId requester,
                       bool write);

    /** Complete the current transaction and start a queued waiter. */
    void finish(NodeEnv &henv, BlockId b);

    /**
     * Directory consistency invariants for @p b, checked when a
     * transaction finishes and at the end of the run (SWSM_CHECK).
     * Only the grant for the finishing transaction may still be in
     * flight, so the safe direction is "a valid remote copy must be
     * covered by the directory", never the converse. The home holds
     * no rights while the entry is busy, and homeRights() after.
     */
    void checkDirInvariant(BlockId b) const;

    /** Send the grant (data or permission) to the current requester. */
    void grant(NodeEnv &henv, BlockId b, bool with_data);

    /** Per-reference access-control charge (0 under the paper's model). */
    void chargeAccessCheck(ProcEnv &env);

    AddressSpace &space;
    ProtoParams params;
    std::vector<ProcEnv *> procs;
    int numNodes;
    std::uint32_t blockBytes;
    Cycles accessCheckCycles;

    std::vector<DirEntry> dir;
    /** Chunks that newCopy() carves copies from. */
    std::vector<std::unique_ptr<std::uint8_t[]>> copyChunks;
    std::uint8_t *copyNext = nullptr; ///< next free copy in the last chunk
    std::size_t copyFree = 0;         ///< bytes left in the last chunk
    /** One outstanding install-time access per (blocking) processor. */
    std::vector<ApplyFn> pendingApply;
    std::vector<LockState> locks;
    std::vector<BarrierState> barriers;
};

} // namespace swsm

#endif // SWSM_PROTO_SC_SC_HH
