/**
 * @file
 * Fine-/variable-grained sequentially consistent protocol (SC).
 *
 * A Stache-like directory protocol in the style of many hardware DSM
 * implementations, as used in the paper: sequential consistency at a
 * per-application power-of-two block granularity, software handlers on
 * the main processor, and — following the paper's explicit assumption —
 * *zero-cost* hardware access control (the state check itself is free;
 * MachineParams::accessCheckCycles, which Thread charges before each
 * reference's check, extends it to Shasta-style software access
 * control).
 *
 * Directory (at each block's home): Idle / Shared(sharers) /
 * Excl(owner), with forwarding for 3-hop misses, invalidation-ack
 * collection for writes, and a busy/waiter queue serializing racing
 * requests per block. Caches of remote data live in node memory and are
 * unbounded (Stache uses local DRAM as the cache).
 *
 * Each node's block states are its access table (proto/access_table.hh),
 * through which the Protocol base loads, stores and installs granted
 * blocks; SC supplies the fault (a miss transaction whose grant
 * performs the access). A non-home node's rights change where its copy
 * is granted, recalled or invalidated. A home's rights are its directory entry's: none
 * while a transaction is in flight, and after it the rights the entry
 * leaves the home (homeRights()).
 */

#ifndef SWSM_PROTO_SC_SC_HH
#define SWSM_PROTO_SC_SC_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "proto/address_space.hh"
#include "proto/proto_params.hh"
#include "proto/protocol.hh"

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
     */
    ScProtocol(AddressSpace &space, const ProtoParams &params,
               std::vector<ProcEnv *> procs);

    const char *name() const override { return "sc"; }

    void acquire(ProcEnv &env, LockId lock) override;
    void release(ProcEnv &env, LockId lock) override;
    void barrier(ProcEnv &env, BarrierId barrier) override;
    void debugRead(GlobalAddr addr, void *out,
                   std::uint64_t bytes) override;
    void checkQuiescent() const override;

    void prepareRun(int num_locks, int num_barriers) override;

  private:
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

    /** The rights directory entry @p d leaves its block's @p home. */
    static Rights homeRights(const DirEntry &d, NodeId home);

    /**
     * Park @p access and run a miss transaction for its block; blocks
     * the fiber. The grant performs the parked access when it installs
     * (performParked()), which guarantees every miss completes its
     * access even under heavy block ping-pong — a blocking-SC
     * processor cannot be starved by invalidations racing its
     * resumption.
     */
    void fault(ProcEnv &env, const Access &access) override;

    /** Send @p env's miss request for @p b and block until granted. */
    void startMiss(ProcEnv &env, BlockId b, bool write);

    /** Perform and clear node @p n's parked access. */
    void performParked(NodeId n);

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

    ProtoParams params;
    std::uint32_t blockBytes;

    std::vector<DirEntry> dir;
    /** Per node, the access its miss will perform at install time (one
     *  per blocking processor). */
    std::vector<std::optional<Access>> parked;
    std::vector<LockState> locks;
    std::vector<BarrierState> barriers;
};

} // namespace swsm

#endif // SWSM_PROTO_SC_SC_HH
