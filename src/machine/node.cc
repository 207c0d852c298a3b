#include "node.hh"

#include <algorithm>

#include "sim/log.hh"

namespace swsm
{

/**
 * Execution context of one protocol handler invocation. Charging
 * advances a private time cursor (handlers occupy the processor) and
 * accumulates into the node's buckets.
 */
class HandlerEnv : public NodeEnv
{
  public:
    HandlerEnv(Node &node, Cycles start) : n(node), now_(start) {}

    NodeId node() const override { return n.id; }
    Cycles now() const override { return now_; }

    void
    charge(Cycles cycles, TimeBucket bucket) override
    {
        now_ += cycles;
        n.buckets[static_cast<int>(bucket)] += cycles;
    }

    void
    sendRequest(NodeId dst, std::uint32_t payload_bytes, HandlerFn &&fn,
                TimeBucket bucket) override
    {
        charge(n.msg.params().hostOverhead, bucket);
        n.msg.sendRequest(n.id, dst, payload_bytes, now_, std::move(fn));
    }

    void
    sendData(NodeId dst, std::uint32_t payload_bytes, DataFn &&fn,
             TimeBucket bucket) override
    {
        charge(n.msg.params().hostOverhead, bucket);
        n.msg.sendData(n.id, dst, payload_bytes, now_, std::move(fn));
    }

    void
    chargeCacheRange(GlobalAddr addr, std::uint64_t bytes, bool write,
                     TimeBucket bucket) override
    {
        charge(n.cacheModel.accessRange(addr, bytes, write), bucket);
    }

    void
    invalidateCacheRange(GlobalAddr addr, std::uint64_t bytes) override
    {
        n.cacheModel.invalidateRange(addr, bytes);
    }

  private:
    Node &n;
    Cycles now_;
};

Node::Node(NodeId id, EventQueue &eq, MsgLayer &msg,
           const MemoryParams &mem, Cycles quantum,
           std::size_t stack_bytes, std::uint64_t seed)
    : id(id), eq(eq), msg(msg), cacheModel(mem), quantum(quantum),
      rng_(seed)
{
    if (quantum == 0)
        SWSM_FATAL("node quantum must be positive");
    fiberStackBytes = stack_bytes;
}

void
Node::start(std::function<void()> body)
{
    if (state != State::Created)
        SWSM_PANIC("node %d started twice", id);
    fiber = std::make_unique<Fiber>(std::move(body), fiberStackBytes);
    state = State::Ready;
    // Route the first resume to this node's execution slot; every
    // later event the node schedules inherits the slot.
    eq.scheduleTo(static_cast<std::uint32_t>(id), 0,
                  [this] { resumeFiber(0); });
}

void
Node::sendRequest(NodeId dst, std::uint32_t payload_bytes, HandlerFn &&fn,
                  TimeBucket bucket)
{
    charge(msg.params().hostOverhead, bucket);
    msg.sendRequest(id, dst, payload_bytes, clock, std::move(fn));
}

void
Node::sendData(NodeId dst, std::uint32_t payload_bytes, DataFn &&fn,
               TimeBucket bucket)
{
    charge(msg.params().hostOverhead, bucket);
    msg.sendData(id, dst, payload_bytes, clock, std::move(fn));
}

void
Node::chargeCacheRange(GlobalAddr addr, std::uint64_t bytes, bool write,
                       TimeBucket bucket)
{
    charge(cacheModel.accessRange(addr, bytes, write), bucket);
}

void
Node::invalidateCacheRange(GlobalAddr addr, std::uint64_t bytes)
{
    cacheModel.invalidateRange(addr, bytes);
}

void
Node::block(TimeBucket wait_kind)
{
    if (state != State::Running)
        SWSM_PANIC("node %d blocking while not running", id);
    drainHandlers();
    state = State::Blocked;
    blockBucket = wait_kind;
    blockStart = clock;
    busyUntil = clock;
    stolen = 0;
    Fiber::yield();
    // resumeFiber() performed the wait accounting and set the clock.
}

void
Node::unblock(Cycles t)
{
    if (state != State::Blocked)
        SWSM_PANIC("node %d unblocked while %s", id, stateName());
    const Cycles resume_at = std::max({t, busyUntil, blockStart});
    const Cycles window = resume_at - blockStart;
    const Cycles waited = window >= stolen ? window - stolen : 0;
    buckets[static_cast<int>(blockBucket)] += waited;
    if (trace_ && resume_at > blockStart)
        trace_->complete(timeBucketName(blockBucket), "wait", id,
                         blockStart, resume_at,
                         TraceArg{"stolen", stolen});
    clock = resume_at;
    state = State::Ready;
    auto resume = [this, resume_at] { resumeFiber(resume_at); };
    // Every block/unblock cycle schedules one of these; if it outgrows
    // the inline store, every synchronization op heap-allocates.
    static_assert(EventFn::storesInline<decltype(resume)>(),
                  "unblock closure no longer fits EventFn's inline "
                  "storage");
    eq.schedule(resume_at, std::move(resume));
}

void
Node::postHandler(Cycles ready, HandlerFn &&fn)
{
    handlers.emplace_back(ready, std::move(fn));
    auto tick = [this] { handlerTick(); };
    static_assert(EventFn::storesInline<decltype(tick)>(),
                  "handler-tick closure no longer fits EventFn's "
                  "inline storage");
    eq.schedule(ready, std::move(tick));
}

Cycles
Node::runHandler(HandlerFn &fn, Cycles start)
{
    HandlerEnv env(*this, start);
    // Interrupt-driven handling: the dispatch itself burns processor
    // time before the handler body runs. No paper configuration
    // interrupts.
    if (const Cycles interrupt = msg.params().interruptCost)
        env.charge(interrupt, TimeBucket::ProtoHandler);
    fn(env);
    return env.now();
}

void
Node::drainHandlers()
{
    if (handlers.empty())
        return;
    inDrain = true;
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = handlers.begin(); it != handlers.end(); ++it) {
            if (it->ready <= clock) {
                PendingHandler h = std::move(*it);
                handlers.erase(it);
                clock = runHandler(h.fn, clock);
                progress = true;
                break;
            }
        }
    }
    inDrain = false;
}

void
Node::handlerTick()
{
    if (state == State::Running || state == State::Ready ||
        state == State::Created) {
        // The fiber will poll (drain) at its next yield point.
        return;
    }
    // Blocked or Done: the processor is available; run ripe handlers.
    const Cycles now = eq.now();
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = handlers.begin(); it != handlers.end(); ++it) {
            if (it->ready <= now) {
                PendingHandler h = std::move(*it);
                handlers.erase(it);
                const Cycles start = std::max(h.ready, busyUntil);
                const Cycles end = runHandler(h.fn, start);
                if (state == State::Blocked)
                    stolen += end - start;
                busyUntil = std::max(busyUntil, end);
                progress = true;
                break;
            }
        }
    }
}

void
Node::quantumYield()
{
    drainHandlers();
    lastYield = clock;
    state = State::Ready;
    auto resume = [this, t = clock] { resumeFiber(t); };
    static_assert(EventFn::storesInline<decltype(resume)>(),
                  "quantum-yield closure no longer fits EventFn's "
                  "inline storage");
    eq.schedule(clock, std::move(resume));
    Fiber::yield();
}

void
Node::resumeFiber(Cycles t)
{
    if (state != State::Ready)
        SWSM_PANIC("node %d resumed while %s", id, stateName());
    if (clock < t)
        clock = t;
    state = State::Running;
    inDrain = false;
    drainHandlers();
    lastYield = clock;
    fiber->resume();
    if (fiber->finished()) {
        state = State::Done;
        finishTime_ = clock;
        busyUntil = clock;
    }
}

const char *
Node::stateName() const
{
    switch (state) {
      case State::Created:
        return "created";
      case State::Ready:
        return "ready";
      case State::Running:
        return "running";
      case State::Blocked:
        return "blocked";
      case State::Done:
        return "done";
      default:
        return "unknown";
    }
}

} // namespace swsm
