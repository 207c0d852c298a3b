/**
 * @file
 * Idealized shared-memory "protocol" — the paper's PRAM-like limit.
 *
 * Provides the algorithmic-speedup reference bars ("Ideal" in Figure 3):
 * every shared access costs only its local cache behaviour (no access
 * control, no remote transfers), and synchronization costs nothing
 * beyond its inherent serialization (lock mutual exclusion and barrier
 * waiting still apply, because they are properties of the algorithm).
 * Also used with one processor as the sequential baseline that all
 * speedups are measured against.
 */

#ifndef SWSM_PROTO_IDEAL_HH
#define SWSM_PROTO_IDEAL_HH

#include <cstdint>
#include <vector>

#include "proto/address_space.hh"
#include "proto/protocol.hh"

namespace swsm
{

/** Zero-cost shared memory: the algorithmic performance limit. */
class IdealProtocol : public Protocol
{
  public:
    /**
     * @param space shared address space (single backing store)
     * @param procs per-node fiber environments
     */
    IdealProtocol(AddressSpace &space, std::vector<ProcEnv *> procs);

    const char *name() const override { return "ideal"; }

    /**
     * Copies all @p bytes: the home store is one contiguous array.
     * Every node's access table holds it as one read-write unit, so
     * Thread resolves any range inside the space as one chunk too.
     */
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
    struct LockState
    {
        bool held = false;
        /** Waiting nodes, oldest first (at most numNodes). */
        std::vector<NodeId> queue;
    };

    struct BarrierState
    {
        int arrived = 0;
        std::vector<NodeId> waiting;
    };

    AddressSpace &space;
    std::vector<ProcEnv *> procs;
    int numNodes;

    std::vector<LockState> locks;
    std::vector<BarrierState> barriers;
};

} // namespace swsm

#endif // SWSM_PROTO_IDEAL_HH
