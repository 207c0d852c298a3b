#include "event_queue.hh"

#include "obs/metrics.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{
/**
 * Initial heap capacity. Even tiny runs schedule thousands of events;
 * pre-sizing skips the first dozen geometric regrowths on the hot path.
 * (The steady-state pending count is bounded by in-flight packets and
 * blocked processors, far below the total events fired.) Keys, slab and
 * free list cost 124 bytes an event, against 128 for the heap of whole
 * events this replaced.
 */
constexpr std::size_t initialCapacity = 4096;
} // namespace

EventQueue::EventQueue()
{
    heap_.reserve(initialCapacity);
    slotSeq_.resize(1);
}

void
EventQueue::setNumSlots(std::uint32_t slots)
{
    if (slots == 0)
        slots = 1;
    if (slots > (1u << 16))
        SWSM_PANIC("EventQueue supports at most %u slots, asked for %u",
                   1u << 16, slots);
    if (slots > slotSeq_.size())
        slotSeq_.resize(slots);
}

void
EventQueue::pastPanic(Cycles when, Cycles now) const
{
    SWSM_PANIC("event scheduled in the past: when=%llu now=%llu",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now));
}

void
EventQueue::push(Cycles when, std::uint64_t stamp, std::uint32_t exec_slot,
                 EventFn fn)
{
    heap_.push(when, stamp, exec_slot, std::move(fn));
    ++scheduled_;
    if (heap_.size() > maxPending_)
        maxPending_ = heap_.size();
}

void
EventQueue::schedule(Cycles when, EventFn fn)
{
    if (when < now_)
        pastPanic(when, now_);
    push(when, makeStamp(curSlot_), curSlot_, std::move(fn));
}

void
EventQueue::scheduleTo(std::uint32_t slot, Cycles when, EventFn fn)
{
    if (when < now_)
        pastPanic(when, now_);
    if (slot >= numSlots())
        SWSM_PANIC("scheduleTo slot %u, only %u declared (setNumSlots)",
                   slot, numSlots());
    push(when, makeStamp(curSlot_), slot, std::move(fn));
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    EventHeap::Event ev = heap_.pop();
    now_ = ev.when;
    curSlot_ = ev.execSlot;
    ++executed_;
    ev.fn();
    return true;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t count = 0;
    while (step())
        ++count;
    return count;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t count = 0;
    while (count < limit && step())
        ++count;
    return count;
}

void
EventQueue::registerMetrics(MetricsRegistry &registry) const
{
    registry.addCounter("sim.events_scheduled",
                        [this] { return scheduled_; });
    registry.addCounter("sim.events_run", [this] { return executed_; });
    registry.addCounter("sim.max_pending_events",
                        [this] { return maxPending_; });
}

} // namespace swsm
