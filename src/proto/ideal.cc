#include "ideal.hh"

#include <algorithm>
#include <bit>

#include "check/check.hh"
#include "sim/log.hh"

namespace swsm
{

IdealProtocol::IdealProtocol(AddressSpace &space,
                             std::vector<ProcEnv *> procs)
    : Protocol(space, std::move(procs))
{}

void
IdealProtocol::prepareRun(int num_locks, int num_barriers)
{
    // The only place the tables grow: every id below the bounds is
    // valid for the whole run, and Thread rejects the others. Each
    // node's access table is one read-write unit spanning the space.
    const std::uint64_t extent = space.extent();
    for (AccessTable &t : access_) {
        t.resize(std::max<std::uint64_t>(std::bit_ceil(extent), wordBytes),
                 extent);
        if (extent > 0)
            t.set(0, space.homeBytes(0), Rights::ReadWrite);
    }
    locks.resize(num_locks);
    barriers.resize(num_barriers);
}

void
IdealProtocol::fault(ProcEnv &env, const Access &access)
{
    SWSM_PANIC("ideal protocol fault on node %d, unit %zu", env.node(),
               access.unit);
}

void
IdealProtocol::acquire(ProcEnv &env, LockId lock)
{
    stats_.lockRequests.inc();
    LockState &ls = locks[lock];
    if (!ls.held) {
        ls.held = true;
        env.charge(1, TimeBucket::Busy);
        return;
    }
    ls.queue.push_back(env.node());
    env.block(TimeBucket::LockWait);
}

void
IdealProtocol::release(ProcEnv &env, LockId lock)
{
    LockState &ls = locks[lock];
    if (!ls.held)
        SWSM_PANIC("ideal lock %d released while free", lock);
    env.charge(1, TimeBucket::Busy);
    if (ls.queue.empty()) {
        ls.held = false;
        return;
    }
    const NodeId next = ls.queue.front();
    ls.queue.erase(ls.queue.begin());
    stats_.lockHandoffs.inc();
    procs[next]->unblock(env.now());
}

void
IdealProtocol::barrier(ProcEnv &env, BarrierId barrier)
{
    BarrierState &bs = barriers[barrier];
    env.charge(1, TimeBucket::Busy);
    if (++bs.arrived < numNodes) {
        bs.waiting.push_back(env.node());
        env.block(TimeBucket::BarrierWait);
        return;
    }
    stats_.barrierEpisodes.inc();
    bs.arrived = 0;
    for (NodeId w : bs.waiting)
        procs[w]->unblock(env.now());
    bs.waiting.clear();
}

void
IdealProtocol::checkQuiescent() const
{
    for (std::size_t l = 0; l < locks.size(); ++l) {
        SWSM_INVARIANT(!locks[l].held,
                       "ideal lock %zu still held at end of run", l);
        SWSM_INVARIANT(locks[l].queue.empty(),
                       "ideal lock %zu ended with %zu queued waiters", l,
                       locks[l].queue.size());
    }
    for (const BarrierState &bs : barriers) {
        SWSM_INVARIANT(bs.arrived == 0 && bs.waiting.empty(),
                       "ideal barrier ended with %d arrivals and %zu "
                       "waiters pending",
                       bs.arrived, bs.waiting.size());
    }
}

} // namespace swsm
