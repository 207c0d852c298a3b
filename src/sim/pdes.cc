#include "pdes.hh"

#include <algorithm>
#include <thread>

#include "check/check.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

namespace swsm
{

namespace
{

/** Calling thread's partition while inside workerLoop (-1 outside). */
thread_local int tlsPartition = -1;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/** Partition workers of every engine running in this process. */
std::atomic<int> liveWorkers{0};

/** Host cores, read once: hardware_concurrency() reads sysfs. */
const int hostCores =
    static_cast<int>(std::thread::hardware_concurrency());

} // namespace

// Spin (briefly) only while every live partition worker can have a
// core. When workers outnumber cores, because one engine has more
// partitions than the host has cores or several engines run at once
// under --jobs, the releasing thread needs our timeslice: spinning
// through it multiplies every window's cost, so yield at once.
void
PdesEngine::Barrier::wait()
{
    constexpr std::uint32_t spinLimit = 4096;
    const int s = sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
        arrived_.store(0, std::memory_order_relaxed);
        sense_.store(s ^ 1, std::memory_order_release);
    } else {
        const bool spin =
            liveWorkers.load(std::memory_order_relaxed) <= hostCores;
        std::uint32_t spins = 0;
        while (sense_.load(std::memory_order_acquire) == s) {
            if (spin && ++spins <= spinLimit)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }
}

PdesEngine::PdesEngine(EventQueue &eq, std::vector<int> partition_of,
                       int num_partitions, Cycles lookahead)
    : eq_(eq), partitionOf_(std::move(partition_of)),
      numPartitions_(num_partitions), lookahead_(lookahead),
      parts_(static_cast<std::size_t>(num_partitions)),
      boxes_(static_cast<std::size_t>(num_partitions) * num_partitions),
      barrier_(num_partitions)
{
    if (numPartitions_ < 2 || numPartitions_ > maxPartitions)
        SWSM_PANIC("PdesEngine needs 2..%d partitions, got %d",
                   maxPartitions, numPartitions_);
    if (lookahead_ == 0)
        SWSM_PANIC("PdesEngine needs a positive lookahead");
    if (partitionOf_.size() < eq_.numSlots())
        SWSM_PANIC("partition map covers %zu slots, queue has %u",
                   partitionOf_.size(), eq_.numSlots());
    for (const int p : partitionOf_) {
        if (p < 0 || p >= numPartitions_)
            SWSM_PANIC("slot mapped to partition %d outside [0, %d)", p,
                       numPartitions_);
    }
}

PdesEngine::~PdesEngine() = default;

void
PdesEngine::pushLocal(Partition &part, Event &&ev)
{
    part.heap.push(std::move(ev));
    if (part.heap.size() > part.maxPending)
        part.maxPending = part.heap.size();
}

void
PdesEngine::drainBox(Partition &part, std::vector<Event> &box)
{
    for (const Event &e : box) {
        // Always-on causality check (not just SWSM_CHECK): with the
        // sound window bound this is dead code by construction, and
        // it is the check that catches any unsound widening executing
        // a window past an undelivered message.
        if (e.when < part.now) {
            check::violation(
                "pdes window advanced past an undelivered "
                "cross-partition message (when=%llu now=%llu)",
                static_cast<unsigned long long>(e.when),
                static_cast<unsigned long long>(part.now));
        }
    }
    for (Event &e : box)
        pushLocal(part, std::move(e));
    box.clear();
}

void
PdesEngine::parallelSchedule(std::uint32_t exec_slot, Cycles when,
                             EventFn fn)
{
    Partition &part = parts_[tlsPartition];
    if (exec_slot == sameSlot)
        exec_slot = part.slot;
    const std::uint64_t stamp = eq_.makeStamp(part.slot);
    ++part.scheduled;
    const int dst = partitionOf_[exec_slot];
    if (dst == tlsPartition) {
        if (when < part.now)
            eq_.pastPanic(when, part.now);
        pushLocal(part, Event{when, stamp, exec_slot, std::move(fn)});
        return;
    }
    // The conservative contract: anything crossing partitions must land
    // at least one full lookahead ahead of the sender's clock, or a
    // window that already executed could have depended on it.
    if (when < satAdd(part.now, lookahead_)) {
        SWSM_PANIC("cross-partition event violates lookahead: when=%llu "
                   "now=%llu lookahead=%llu",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(part.now),
                   static_cast<unsigned long long>(lookahead_));
    }
    ++part.mailed;
    boxes_[static_cast<std::size_t>(tlsPartition) * numPartitions_ + dst]
        .push_back(Event{when, stamp, exec_slot, std::move(fn)});
}

void
PdesEngine::executeWindow(Partition &part, Cycles window_end)
{
    EventHeap &heap = part.heap;
    while (!heap.empty() && heap.topWhen() < window_end) {
        Event ev = heap.pop();
        part.now = ev.when;
        part.slot = ev.execSlot;
        ++part.executed;
        ev.fn();
    }
}

void
PdesEngine::workerLoop(int p)
{
    tlsPartition = p;
    const int prev_shard = statShard();
    setStatShard(p);
    Partition &part = parts_[p];

    for (;;) {
        // Deliver mail produced in the previous window. The barrier
        // preceding this point published the entries (single producer
        // per box, consumed only here). A causality violation in the
        // drain must not unwind past the barrier protocol, so it is
        // captured like an event error. The abort_ store is deferred
        // to the execute phase below: peers poll abort_ right after
        // the post-window barrier, and a store made here — between
        // that barrier and the publish barrier — can reach one
        // partition's check but not another's, leaving the survivors
        // waiting on a barrier the early exiter never joins.
        bool drain_error = false;
        try {
            for (int src = 0; src < numPartitions_; ++src) {
                drainBox(part, boxes_[static_cast<std::size_t>(src) *
                                          numPartitions_ +
                                      p]);
            }
        } catch (...) {
            if (!part.error)
                part.error = std::current_exception();
            drain_error = true;
        }

        const Cycles pub =
            part.heap.empty() ? noEvent : part.heap.topWhen();
        part.published.store(pub, std::memory_order_relaxed);
        barrier_.wait();

        // Every worker reads the same published values, so they all
        // agree on the same bounds (and on termination) without
        // further communication. The bound is the one in pdes.hh.
        Cycles peers = noEvent;
        for (int q = 0; q < numPartitions_; ++q) {
            if (q != p) {
                peers = std::min(peers, parts_[q].published.load(
                                            std::memory_order_relaxed));
            }
        }
        if (pub == noEvent && peers == noEvent)
            break;
        const Cycles bound =
            satAdd(std::min(satAdd(pub, lookahead_), peers), lookahead_);

        ++part.windows;
        if (drain_error) {
            // Surface the drain failure from inside the execute phase:
            // every peer's next abort_ poll sits after the coming
            // barrier, so the whole gang agrees to stop this round.
            abort_.store(true, std::memory_order_relaxed);
        } else if (!abort_.load(std::memory_order_relaxed)) {
            try {
                executeWindow(part, bound);
            } catch (...) {
                if (!part.error)
                    part.error = std::current_exception();
                abort_.store(true, std::memory_order_relaxed);
            }
        }
        barrier_.wait();
        if (abort_.load(std::memory_order_relaxed))
            break;
    }

    setStatShard(prev_shard);
    tlsPartition = -1;
}

std::uint64_t
PdesEngine::run()
{
    // Seed the partitions from the queue's pending events (setup-phase
    // events scheduled serially before the run).
    while (!eq_.heap_.empty()) {
        Event e = eq_.heap_.pop();
        parts_[partitionOf_[e.execSlot]].heap.push(std::move(e));
    }
    for (Partition &part : parts_) {
        part.now = eq_.now_;
        part.maxPending = part.heap.size();
    }

    eq_.pdes_ = this;
    liveWorkers.fetch_add(numPartitions_);
    std::vector<std::thread> threads;
    threads.reserve(numPartitions_ - 1);
    for (int p = 1; p < numPartitions_; ++p)
        threads.emplace_back([this, p] { workerLoop(p); });
    workerLoop(0);
    for (std::thread &t : threads)
        t.join();
    liveWorkers.fetch_sub(numPartitions_);
    eq_.pdes_ = nullptr;

    // Merge the partition counters back into the queue.
    std::uint64_t executed = 0;
    stats_.partitions = static_cast<std::uint64_t>(numPartitions_);
    stats_.windows = parts_[0].windows;
    stats_.partitionEvents.clear();
    for (Partition &part : parts_) {
        executed += part.executed;
        eq_.scheduled_ += part.scheduled;
        eq_.executed_ += part.executed;
        eq_.maxPending_ = std::max<std::uint64_t>(eq_.maxPending_,
                                                  part.maxPending);
        eq_.now_ = std::max(eq_.now_, part.now);
        stats_.mailboxEvents += part.mailed;
        stats_.maxPartitionEvents =
            std::max(stats_.maxPartitionEvents, part.executed);
        stats_.partitionEvents.push_back(part.executed);
        while (!part.heap.empty())
            eq_.heap_.push(part.heap.pop());
    }

    for (const Partition &part : parts_) {
        if (part.error)
            std::rethrow_exception(part.error);
    }
    return executed;
}

void
PdesEngine::checkDrained() const
{
    if (!check::enabled())
        return;
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
        SWSM_INVARIANT(
            boxes_[i].empty(),
            "pdes mailbox %zu->%zu ended with %zu undelivered events",
            i / numPartitions_, i % numPartitions_, boxes_[i].size());
    }
}

Cycles
EventQueue::parallelNow() const
{
    if (tlsPartition < 0)
        return now_;
    return pdes_->parts_[tlsPartition].now;
}

std::uint32_t
EventQueue::parallelSlot() const
{
    if (tlsPartition < 0)
        return curSlot_;
    return pdes_->parts_[tlsPartition].slot;
}

} // namespace swsm
