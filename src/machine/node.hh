/**
 * @file
 * One cluster node: a uniprocessor, its caches, and its fiber.
 *
 * The Node is the machine layer's implementation of the two execution
 * environments protocol software runs in:
 *
 *  - ProcEnv, for the application fiber (faults, synchronization): the
 *    fiber runs ahead of global simulated time on a local clock and
 *    yields at blocking operations or at quantum expiry;
 *  - HandlerSink + per-invocation handler environments, for protocol
 *    request handlers: a handler runs on the main processor at the
 *    node's next poll point (fiber yield) or, when the fiber is blocked
 *    or finished, as soon as it is ready — its cycles occupy the
 *    processor and delay the fiber's resumption.
 *
 * Every cycle of wall time is attributed to exactly one TimeBucket;
 * waiting windows are reduced by the handler time "stolen" within them
 * so that buckets sum to total time (the paper's Figure 4 breakdowns).
 */

#ifndef SWSM_MACHINE_NODE_HH
#define SWSM_MACHINE_NODE_HH

#include <array>
#include <memory>
#include <vector>

#include "comm/msg_layer.hh"
#include "fiber/fiber.hh"
#include "mem/cache_model.hh"
#include "proto/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace swsm
{

/**
 * A uniprocessor cluster node (processor + caches + handler queue).
 * Final, so that a call through a Node reference binds statically:
 * Thread's inline hit makes no virtual call and can inline charge()
 * and chargeSharedAccess().
 */
class Node final : public ProcEnv, public HandlerSink
{
  public:
    /**
     * @param id node id
     * @param eq the cluster's event queue
     * @param msg the cluster's message layer
     * @param mem node memory hierarchy parameters
     * @param quantum fiber yield / polling quantum in cycles
     * @param stack_bytes fiber stack size
     * @param seed RNG seed for this node's application thread
     */
    Node(NodeId id, EventQueue &eq, MsgLayer &msg,
         const MemoryParams &mem, Cycles quantum, std::size_t stack_bytes,
         std::uint64_t seed);

    // NodeEnv / ProcEnv interface (application fiber context)
    NodeId node() const override { return id; }
    Cycles now() const override { return clock; }

    void
    charge(Cycles cycles, TimeBucket bucket) override
    {
        clock += cycles;
        buckets[static_cast<int>(bucket)] += cycles;
        if (!inDrain && state == State::Running &&
            clock - lastYield >= quantum) {
            quantumYield();
        }
    }

    void sendRequest(NodeId dst, std::uint32_t payload_bytes,
                     HandlerFn &&fn, TimeBucket bucket) override;
    void sendData(NodeId dst, std::uint32_t payload_bytes, DataFn &&fn,
                  TimeBucket bucket) override;
    void chargeCacheRange(GlobalAddr addr, std::uint64_t bytes, bool write,
                          TimeBucket bucket) override;
    void invalidateCacheRange(GlobalAddr addr,
                              std::uint64_t bytes) override;

    /**
     * Charge one shared memory reference at @p addr: the 1-IPC issue
     * cycle (Busy) plus any local cache stall (StallLocal). Only Thread
     * charges references; no protocol does.
     */
    void
    chargeSharedAccess(GlobalAddr addr, bool write)
    {
        const Cycles stall = cacheModel.access(addr, write);
        charge(1, TimeBucket::Busy);
        if (stall)
            charge(stall, TimeBucket::StallLocal);
    }

    void block(TimeBucket wait_kind) override;
    void unblock(Cycles t) override;

    // HandlerSink interface (message layer)
    void postHandler(Cycles ready, HandlerFn &&fn) override;

    /** Start the application thread body; schedules the first resume. */
    void start(std::function<void()> body);

    /** True once the thread body returned. */
    bool done() const { return state == State::Done; }
    /** Local time at which the thread finished. */
    Cycles finishTime() const { return finishTime_; }

    /** Time attributed to @p b so far. */
    Cycles bucket(TimeBucket b) const
    {
        return buckets[static_cast<int>(b)];
    }
    /** All buckets. */
    const std::array<Cycles, numTimeBuckets> &allBuckets() const
    {
        return buckets;
    }

    CacheModel &cache() { return cacheModel; }
    Rng &rng() { return rng_; }

    /**
     * Enable wait-window tracing: every blocked window emits a span
     * named after its TimeBucket. Null (the default) disables it.
     */
    void setTracer(Tracer *tracer) { trace_ = tracer; }

    /** Debug: printable state name (deadlock reports). */
    const char *stateName() const;

  private:
    enum class State
    {
        Created, ///< start() not called yet
        Ready,   ///< a resume event is scheduled
        Running, ///< the fiber is the current context
        Blocked, ///< waiting for unblock()
        Done,    ///< thread body returned
    };

    struct PendingHandler
    {
        Cycles ready;
        HandlerFn fn;
    };

    /** Handler execution context; see HandlerEnv in node.cc. */
    friend class HandlerEnv;

    /** Resume-event body. */
    void resumeFiber(Cycles t);
    /** Yield because the local quantum expired. */
    void quantumYield();
    /** Run all queued handlers with ready <= clock (fiber context). */
    void drainHandlers();
    /** Event: run ripe handlers while blocked/done. */
    void handlerTick();
    /**
     * Execute one handler starting at @p start, after its interrupt
     * dispatch cost (CommParams::interruptCost, 0 when polling);
     * returns its end time.
     */
    Cycles runHandler(HandlerFn &fn, Cycles start);

    NodeId id;
    EventQueue &eq;
    MsgLayer &msg;
    CacheModel cacheModel;
    Cycles quantum;
    Rng rng_;

    std::unique_ptr<Fiber> fiber;
    State state = State::Created;
    Cycles clock = 0;      ///< processor-local time
    Cycles lastYield = 0;  ///< clock at the last yield (quantum basis)
    bool inDrain = false;  ///< guards recursive quantum yields

    // Blocking bookkeeping
    TimeBucket blockBucket = TimeBucket::DataWait;
    Cycles blockStart = 0;
    Cycles busyUntil = 0;  ///< handler occupancy while blocked/done
    Cycles stolen = 0;     ///< handler cycles inside the block window

    Tracer *trace_ = nullptr;

    /** Posted handlers in posting order. A vector, not a deque: it
     *  keeps its capacity, so posting allocates nothing in steady
     *  state. */
    std::vector<PendingHandler> handlers;
    std::array<Cycles, numTimeBuckets> buckets{};
    Cycles finishTime_ = 0;
    std::size_t fiberStackBytes = 1024 * 1024;
};

} // namespace swsm

#endif // SWSM_MACHINE_NODE_HH
