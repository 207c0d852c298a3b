#include "event_queue.hh"

#include "obs/metrics.hh"
#include "sim/log.hh"

namespace swsm
{

void
EventHeap::reserve(std::size_t events)
{
    keys_.reserve(events);
    while (chunks_.size() * chunkSlots < events)
        grow();
}

void
EventHeap::grow()
{
    // Chunks are added by need and never move or shrink: a run's slab
    // is as large as its deepest moment (plus the running callback).
    const auto first =
        static_cast<std::uint32_t>(chunks_.size() * chunkSlots);
    chunks_.push_back(std::make_unique<EventFn[]>(chunkSlots));
    free_.reserve(first + chunkSlots);
    // Lowest index last, so the slots are handed out in order.
    for (std::uint32_t i = chunkSlots; i-- > 0;)
        free_.push_back(first + i);
}

void
EventHeap::siftUp(const Key &k)
{
    std::size_t hole = keys_.size();
    keys_.push_back(k);
    const Order key = order(k);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (order(keys_[parent]) <= key)
            break;
        keys_[hole] = keys_[parent];
        hole = parent;
    }
    keys_[hole] = k;
}

EventHeap::Key
EventHeap::popHeap()
{
    const Key top = keys_.front();
    const Key last = keys_.back();
    keys_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0)
        return top;
    // Sift the root's hole down along the earlier child until `last`
    // fits in it.
    const Order key = order(last);
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
        Order c = order(keys_[child]);
        if (child + 1 < n) {
            const Order right = order(keys_[child + 1]);
            if (right < c) {
                c = right;
                ++child;
            }
        }
        if (key <= c)
            break;
        keys_[hole] = keys_[child];
        hole = child;
    }
    keys_[hole] = last;
    return top;
}

EventQueue::EventQueue()
{
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
EventQueue::slotPanic(std::uint32_t slot) const
{
    SWSM_PANIC("scheduleTo slot %u, only %u declared (setNumSlots)", slot,
               numSlots());
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const EventHeap::Key k = heap_.pop();
    now_ = k.when;
    curSlot_ = k.execSlot;
    ++executed_;
    heap_.run(k.index);
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
