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

    void acquire(ProcEnv &env, LockId lock) override;
    void release(ProcEnv &env, LockId lock) override;
    void barrier(ProcEnv &env, BarrierId barrier) override;
    void checkQuiescent() const override;

    /**
     * Every node's access table holds the home store, one contiguous
     * array, as one read-write unit, so load() and store() copy any
     * range inside the space at once and never fault.
     */
    void prepareRun(int num_locks, int num_barriers) override;

  private:
    /** Never called: every node can read and write the whole space. */
    void fault(ProcEnv &env, const Access &access) override;

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

    std::vector<LockState> locks;
    std::vector<BarrierState> barriers;
};

} // namespace swsm

#endif // SWSM_PROTO_IDEAL_HH
