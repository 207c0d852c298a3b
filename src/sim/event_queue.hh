/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated cluster. Events are callbacks
 * scheduled at absolute cycle times; ties are broken deterministically by
 * a (slot, per-slot sequence) stamp so that simulations are
 * bit-reproducible — and, crucially, so that the tie order does not
 * depend on how the event set is partitioned across worker threads (see
 * sim/pdes.hh).
 *
 * The kernel schedules millions of events per run, so the callback type
 * is a small-buffer EventFn rather than std::function: every callback the
 * simulator itself creates fits in the inline storage and scheduling one
 * costs no heap allocation. The pending set is an EventHeap: a binary
 * heap of 24-byte (when, stamp, slab index, exec slot) keys over a slab
 * that holds the callbacks, so a sift moves plain keys and each callback
 * is relocated only on its way into the slab and once more on its way
 * out.
 *
 * Slots and execution contexts: every event belongs to a slot (in the
 * machine layer, the node whose state it touches). schedule() inherits
 * the slot of the event currently executing; scheduleTo() targets an
 * explicit slot and is the only way an event crosses slots. Each slot
 * carries its own monotonically increasing sequence counter, and an
 * event's tie-break stamp is (scheduling slot << 48) | per-slot seq.
 * Because slot s's events always execute in the same relative order, the
 * stamps — and therefore the global (when, stamp) execution order — are
 * identical whether the queue runs serially or partitioned.
 *
 * An EventQueue is confined to one thread in serial mode. In parallel
 * mode a PdesEngine temporarily takes over scheduling (see sim/pdes.hh);
 * the queue itself remains externally unsynchronized, and the parallel
 * sweep engine gives each concurrent simulation its own queue.
 */

#ifndef SWSM_SIM_EVENT_QUEUE_HH
#define SWSM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace swsm
{

class MetricsRegistry;
class PdesEngine;

/**
 * Move-only callback with inline storage for the event hot path.
 *
 * Callables up to inlineBytes are stored in place; larger ones fall
 * back to a single heap allocation. inlineBytes is sized to hold the
 * kernel's largest hot-path lambda, the network's local-dispatch
 * closure, at 72 bytes — net/network.cc static_asserts that it still
 * fits. Unlike std::function it supports move-only callables, so
 * completion callbacks can be moved — not copied — into the queue.
 */
class EventFn
{
  public:
    static constexpr std::size_t inlineBytes = 72;

    EventFn() noexcept : ops(nullptr) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(store)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(store) = new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&other) noexcept : ops(other.ops)
    {
        if (ops)
            ops->relocate(other.store, store);
        other.ops = nullptr;
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops = other.ops;
            if (ops)
                ops->relocate(other.store, store);
            other.ops = nullptr;
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    void
    operator()()
    {
        ops->invoke(store);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src and destroy src. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *src, void *dst) {
            auto *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *src, void *dst) {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(store);
            ops = nullptr;
        }
    }

    const Ops *ops;
    alignas(std::max_align_t) unsigned char store[inlineBytes];
};

/**
 * Pending events in (when, stamp) order: the serial queue's event set
 * and each PdesEngine partition's.
 *
 * The binary heap holds 24-byte keys; each key names the slab slot that
 * holds its callback, so sifts never touch an EventFn. Vacated slots go
 * on a LIFO free list, and the next push refills the most recently
 * vacated, cache-warm slot. Stamps are unique, so (when, stamp) is a
 * strict total order and the heap's internal layout never shows in the
 * execution order.
 */
class EventHeap
{
  public:
    /** A pending event outside the heap: popped, or in a PDES mailbox. */
    struct Event
    {
        Cycles when;
        /** (scheduling slot << 48) | per-slot sequence; unique. */
        std::uint64_t stamp;
        /** Slot whose context the event executes in. */
        std::uint32_t execSlot;
        EventFn fn;
    };

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }

    /** Time of the earliest event. @pre !empty() */
    Cycles topWhen() const { return keys_.front().when; }

    /** Pre-size keys, slab and free list for @p events pending events. */
    void
    reserve(std::size_t events)
    {
        keys_.reserve(events);
        slab_.reserve(events);
        free_.reserve(events);
    }

    void
    push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot,
         EventFn &&fn)
    {
        std::uint32_t index;
        if (free_.empty()) {
            index = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(fn));
        } else {
            index = free_.back();
            free_.pop_back();
            slab_[index] = std::move(fn);
        }
        keys_.push_back(Key{when, stamp, index, exec_slot});
        std::push_heap(keys_.begin(), keys_.end(), Later{});
    }

    void
    push(Event &&e)
    {
        push(e.when, e.stamp, e.execSlot, std::move(e.fn));
    }

    /**
     * Remove the earliest event. Its callback leaves the slab here,
     * before the caller runs it: the callback may schedule events, and
     * a push that grows the slab would relocate a callable mid-call.
     * @pre !empty()
     */
    Event
    pop()
    {
        std::pop_heap(keys_.begin(), keys_.end(), Later{});
        const Key k = keys_.back();
        keys_.pop_back();
        free_.push_back(k.index);
        return Event{k.when, k.stamp, k.execSlot,
                     std::move(slab_[k.index])};
    }

  private:
    struct Key
    {
        Cycles when;
        std::uint64_t stamp;
        /** Slab slot of the callback. */
        std::uint32_t index;
        /** Fills the padding after index; read only at pop. */
        std::uint32_t execSlot;
    };
    static_assert(sizeof(Key) == 24);

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.stamp > b.stamp;
        }
    };

    std::vector<Key> keys_;
    std::vector<EventFn> slab_;
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
    Cycles
    now() const
    {
        if (pdes_ != nullptr) [[unlikely]]
            return parallelNow();
        return now_;
    }

    /** Number of pending events (serial mode). */
    std::size_t pending() const { return heap_.size(); }

    /** True when no events remain (serial mode). */
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
     * scheduling it).
     * @pre when >= now()
     */
    void schedule(Cycles when, EventFn fn);

    /**
     * Schedule @p fn at absolute time @p when to execute in @p slot's
     * context. This is the only way work crosses slots — in the machine
     * layer, the network's sender-side dispatch targeting the receiving
     * node. The tie-break stamp still comes from the *scheduling* slot.
     * @pre when >= now(), slot < numSlots()
     */
    void scheduleTo(std::uint32_t slot, Cycles when, EventFn fn);

    /** Schedule @p fn @p delta cycles from now. */
    void scheduleAfter(Cycles delta, EventFn fn)
    {
        schedule(now() + delta, std::move(fn));
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
    friend class PdesEngine;

    /**
     * Per-slot stamp counter, cache-line padded: in parallel mode each
     * slot's counter is touched only by the worker owning that slot's
     * partition, and padding keeps neighbouring slots from false
     * sharing on the scheduling hot path.
     */
    struct alignas(64) SlotSeq
    {
        std::uint64_t next = 0;
    };

    static constexpr unsigned stampSlotShift = 48;

    std::uint64_t
    makeStamp(std::uint32_t slot)
    {
        return (static_cast<std::uint64_t>(slot) << stampSlotShift) |
               slotSeq_[slot].next++;
    }

    /** Common serial-mode insert. */
    void push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot,
              EventFn fn);

    [[noreturn]] void pastPanic(Cycles when, Cycles now) const;

    /** Parallel-mode accessor (defined in pdes.cc). */
    Cycles parallelNow() const;

    EventHeap heap_;
    Cycles now_ = 0;
    std::uint32_t curSlot_ = 0;
    std::vector<SlotSeq> slotSeq_;
    /** Non-null only while a PdesEngine::run is live on this queue. */
    PdesEngine *pdes_ = nullptr;
    std::uint64_t scheduled_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t maxPending_ = 0;
};

} // namespace swsm

#endif // SWSM_SIM_EVENT_QUEUE_HH
