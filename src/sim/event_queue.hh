/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated cluster, on one thread.
 * Events are callbacks scheduled at absolute cycle times; ties are
 * broken deterministically by a (slot, per-slot sequence) stamp so that
 * simulations are bit-reproducible.
 *
 * The kernel schedules millions of events per run, so the callback type
 * is an EventFn (sim/inline_fn.hh) rather than std::function: every
 * callback the simulator itself creates fits in its 72 inline bytes
 * and scheduling one costs no heap allocation. The pending set is an
 * EventHeap: a binary heap of 24-byte (when, stamp, slab index, exec
 * slot) keys over a slab of callbacks in chunks that never move. A
 * callback is constructed once, in its slab slot, by schedule(); runs
 * there; and is destroyed when it returns. Keys, slab and free list
 * cost 108 bytes an event.
 *
 * Slots and the tie-break: every event belongs to a slot (in the
 * machine layer, the node whose state it touches). schedule() inherits
 * the slot of the event currently executing; scheduleTo() targets an
 * explicit slot and is the only way an event crosses slots. Each slot
 * carries its own monotonically increasing sequence counter, and an
 * event's stamp is (scheduling slot << 48) | per-slot seq. The stamp
 * is only the tie-break among events at one time: it orders them by
 * the slot that scheduled each one, then by that slot's scheduling
 * order. One global sequence counter would order them by scheduling
 * order alone, which reorders simultaneous events and moves simulated
 * results (EventQueue.CrossSlotTiesBreakBySchedulingSlot pins the
 * rule).
 *
 * An EventQueue is externally unsynchronized; the sweep runner gives
 * each concurrent simulation its own queue.
 */

#ifndef SWSM_SIM_EVENT_QUEUE_HH
#define SWSM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace swsm
{

class MetricsRegistry;

/**
 * The event kernel's callback: a move-only InlineFn with 72 inline
 * bytes (80 in all). Every closure the simulator schedules fits: the
 * network's packet stages and delivery capture a message index and a
 * few ids, the nodes' resumes a node and a time (net/network.cc and
 * machine/node.cc static_assert it).
 */
using EventFn = InlineFn<void(), 72>;
static_assert(sizeof(EventFn) == 80);

/**
 * Pending events in (when, stamp) order: an EventQueue's event set.
 *
 * Each callback is constructed once, in a slab of fixed-size chunks
 * that never move, runs there and is destroyed after it returns; a
 * callback that schedules events while it runs can grow the slab
 * without moving itself. The binary heap holds 24-byte keys, each
 * naming the slab slot of its callback, so a sift moves plain keys
 * into a hole and compares (when, stamp) as one 128-bit number.
 * Vacated slots go on a LIFO free list, and the next push refills the
 * most recently vacated, cache-warm slot. Stamps are unique, so
 * (when, stamp) is a strict total order and the heap's internal layout
 * never shows in the execution order.
 */
class EventHeap
{
  public:
    /** The earliest event's key, removed from the heap by pop(). */
    struct Key
    {
        Cycles when;
        /** (scheduling slot << 48) | per-slot sequence; unique. */
        std::uint64_t stamp;
        /** Slab slot of the callback. */
        std::uint32_t index;
        /** Slot whose context the event executes in. */
        std::uint32_t execSlot;
    };
    static_assert(sizeof(Key) == 24);

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }

    /** Pre-size keys, slab and free list for @p events pending events. */
    void reserve(std::size_t events);

    /** Construct @p fn in a free slab slot and queue it. */
    template <typename F>
    void
    push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot, F &&fn)
    {
        const std::uint32_t index = takeSlot();
        slot(index).emplace(std::forward<F>(fn));
        siftUp(Key{when, stamp, index, exec_slot});
    }

    /**
     * Remove the earliest key; its callback stays in the slab until
     * run() has run it.
     * @pre !empty()
     */
    Key pop();

    /**
     * Run the callback in slab slot @p index where it was built, then
     * destroy it and free the slot. (A callback that throws keeps its
     * slot until the heap is destroyed.)
     */
    void
    run(std::uint32_t index)
    {
        EventFn &fn = slot(index);
        fn();
        fn = nullptr;
        free_.push_back(index);
    }

  private:
    /** Callbacks per slab chunk (80 bytes each). */
    static constexpr unsigned chunkShift = 7;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    __extension__ using Order = unsigned __int128;

    static Order
    order(const Key &k)
    {
        return (static_cast<Order>(k.when) << 64) | k.stamp;
    }

    EventFn &
    slot(std::uint32_t index)
    {
        return chunks_[index >> chunkShift][index & (chunkSlots - 1)];
    }

    /** A vacant slot, growing the slab by a chunk when none is left. */
    std::uint32_t
    takeSlot()
    {
        if (free_.empty())
            grow();
        const std::uint32_t index = free_.back();
        free_.pop_back();
        return index;
    }

    void grow();
    void siftUp(const Key &k);

    std::vector<Key> keys_;
    std::vector<std::unique_ptr<EventFn[]>> chunks_;
    /** Vacant slab slots, most recently vacated last. */
    std::vector<std::uint32_t> free_;
};

/**
 * Priority queue of timed callbacks with deterministic tie-breaking.
 *
 * The queue owns the notion of "now": the timestamp of the event currently
 * (or most recently) being executed. Scheduling into the past is a
 * simulator bug and panics.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (cycles). */
    Cycles now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Pre-size the backing storage for @p events pending events. */
    void reserve(std::size_t events) { heap_.reserve(events); }

    /**
     * Declare the number of execution slots (e.g. cluster nodes). Must
     * be called before any event for a slot >= the current count is
     * scheduled; growing the count does not disturb already-assigned
     * stamps. Slot 0 always exists (the default context).
     */
    void setNumSlots(std::uint32_t slots);

    /** Number of declared execution slots. */
    std::uint32_t numSlots() const
    {
        return static_cast<std::uint32_t>(slotSeq_.size());
    }

    /**
     * Schedule @p fn at absolute time @p when in the current slot's
     * context (the event will execute in the same slot as the one
     * scheduling it). @p fn is any callable EventFn accepts; it is
     * constructed straight into the slab.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Cycles when, F &&fn)
    {
        if (when < now_)
            pastPanic(when, now_);
        push(when, makeStamp(curSlot_), curSlot_, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when to execute in @p slot's
     * context. This is the only way work crosses slots — in the machine
     * layer, the network's sender-side dispatch targeting the receiving
     * node. The tie-break stamp still comes from the *scheduling* slot.
     * @pre when >= now(), slot < numSlots()
     */
    template <typename F>
    void
    scheduleTo(std::uint32_t slot, Cycles when, F &&fn)
    {
        if (when < now_)
            pastPanic(when, now_);
        if (slot >= numSlots())
            slotPanic(slot);
        push(when, makeStamp(curSlot_), slot, std::forward<F>(fn));
    }

    /** Schedule @p fn @p delta cycles from now. */
    template <typename F>
    void
    scheduleAfter(Cycles delta, F &&fn)
    {
        schedule(now() + delta, std::forward<F>(fn));
    }

    /**
     * Execute the earliest pending event, advancing now().
     * @retval true an event was executed
     * @retval false the queue was empty
     */
    bool step();

    /** Run until the queue drains. Returns the number of events run. */
    std::uint64_t run();

    /**
     * Run until the queue drains or @p limit events have fired.
     * Used by tests and as a runaway guard.
     */
    std::uint64_t run(std::uint64_t limit);

    /** Events executed since construction. */
    std::uint64_t eventsRun() const { return executed_; }

    /** High-water mark of pending events (heap depth). */
    std::uint64_t maxPending() const { return maxPending_; }

    /** Register the kernel's scheduling statistics under "sim.*". */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    static constexpr unsigned stampSlotShift = 48;

    std::uint64_t
    makeStamp(std::uint32_t slot)
    {
        return (static_cast<std::uint64_t>(slot) << stampSlotShift) |
               slotSeq_[slot]++;
    }

    /** Common insert of schedule() and scheduleTo(). */
    template <typename F>
    void
    push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot, F &&fn)
    {
        heap_.push(when, stamp, exec_slot, std::forward<F>(fn));
        ++scheduled_;
        if (heap_.size() > maxPending_)
            maxPending_ = heap_.size();
    }

    [[noreturn]] void pastPanic(Cycles when, Cycles now) const;
    [[noreturn]] void slotPanic(std::uint32_t slot) const;

    EventHeap heap_;
    Cycles now_ = 0;
    std::uint32_t curSlot_ = 0;
    /** Per slot, the sequence number of its next stamp. */
    std::vector<std::uint64_t> slotSeq_;
    std::uint64_t scheduled_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t maxPending_ = 0;
};

} // namespace swsm

#endif // SWSM_SIM_EVENT_QUEUE_HH
