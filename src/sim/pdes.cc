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

} // namespace

// Spin briefly for the dedicated-core case, then yield on every
// iteration: on an oversubscribed host (more workers than cores) the
// releasing thread needs our timeslice, and spinning through it
// multiplies every window's cost. The core count is read once here:
// hardware_concurrency() reads sysfs, system calls a per-wait read
// would pay on every window.
PdesEngine::Barrier::Barrier(int parties)
    : parties_(parties),
      spinLimit_(std::thread::hardware_concurrency() >=
                         static_cast<unsigned>(parties)
                     ? 4096u
                     : 0u)
{
}

void
PdesEngine::Barrier::wait()
{
    const int s = sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
        arrived_.store(0, std::memory_order_relaxed);
        sense_.store(s ^ 1, std::memory_order_release);
    } else {
        std::uint32_t spins = 0;
        while (sense_.load(std::memory_order_acquire) == s) {
            if (++spins > spinLimit_)
                std::this_thread::yield();
            else
                cpuRelax();
        }
    }
}

PdesEngine::PdesEngine(EventQueue &eq, std::vector<int> partition_of,
                       int num_partitions, std::vector<Cycles> lookahead)
    : eq_(eq), partitionOf_(std::move(partition_of)),
      numPartitions_(num_partitions), lookahead_(std::move(lookahead)),
      parts_(static_cast<std::size_t>(num_partitions)),
      boxes_(static_cast<std::size_t>(num_partitions) * num_partitions),
      barrier_(num_partitions)
{
    if (numPartitions_ < 2 || numPartitions_ > maxPartitions)
        SWSM_PANIC("PdesEngine needs 2..%d partitions, got %d",
                   maxPartitions, numPartitions_);
    if (lookahead_.size() !=
        static_cast<std::size_t>(numPartitions_) * numPartitions_) {
        SWSM_PANIC("lookahead matrix has %zu entries, need %d x %d",
                   lookahead_.size(), numPartitions_, numPartitions_);
    }
    for (int from = 0; from < numPartitions_; ++from) {
        for (int to = 0; to < numPartitions_; ++to) {
            if (from == to)
                continue;
            const Cycles l = edge(from, to);
            if (l == 0) {
                SWSM_PANIC("PdesEngine needs positive lookahead, "
                           "entry [%d][%d] is zero",
                           from, to);
            }
            minLookahead_ = std::min(minLookahead_, l);
        }
    }
    if (minLookahead_ == noEvent)
        SWSM_PANIC("PdesEngine lookahead matrix has no finite edge");
    if (partitionOf_.size() < eq_.numSlots())
        SWSM_PANIC("partition map covers %zu slots, queue has %u",
                   partitionOf_.size(), eq_.numSlots());
    for (const int p : partitionOf_) {
        if (p < 0 || p >= numPartitions_)
            SWSM_PANIC("slot mapped to partition %d outside [0, %d)", p,
                       numPartitions_);
    }
}

PdesEngine::PdesEngine(EventQueue &eq, std::vector<int> partition_of,
                       int num_partitions, Cycles lookahead)
    : PdesEngine(eq, std::move(partition_of), num_partitions,
                 std::vector<Cycles>(
                     static_cast<std::size_t>(num_partitions) *
                         num_partitions,
                     lookahead))
{
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
    if (when < satAdd(part.now, edge(tlsPartition, dst))) {
        SWSM_PANIC("cross-partition event violates lookahead: when=%llu "
                   "now=%llu lookahead=%llu",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(part.now),
                   static_cast<unsigned long long>(
                       edge(tlsPartition, dst)));
    }
    ++part.mailed;
    boxes_[static_cast<std::size_t>(tlsPartition) * numPartitions_ + dst]
        .push_back(Event{when, stamp, exec_slot, std::move(fn)});
}

void
PdesEngine::computeEarliest(Cycles *earliest) const
{
    // Least fixpoint of
    //   E[q] = min(published[q], min over r != q of E[r] + L[r][q]),
    // i.e. the transitive closure of "who can cause what, how soon"
    // over the lookahead graph. Every worker computes this from the
    // same post-barrier published snapshot, so all agree bit-for-bit.
    // Converges in <= P passes (each pass finalizes at least the
    // smallest undetermined value); P <= 16 keeps this trivially cheap.
    for (int q = 0; q < numPartitions_; ++q) {
        earliest[q] =
            parts_[q].published.load(std::memory_order_relaxed);
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int q = 0; q < numPartitions_; ++q) {
            for (int r = 0; r < numPartitions_; ++r) {
                if (r == q)
                    continue;
                const Cycles via = satAdd(earliest[r], edge(r, q));
                if (via < earliest[q]) {
                    earliest[q] = via;
                    changed = true;
                }
            }
        }
    }
}

Cycles
PdesEngine::windowBound(int p, const Cycles *earliest) const
{
    // Bound partition p by its actual incoming edges: no peer can get
    // a message to p earlier than its own earliest possible event plus
    // the minimum hop cost of the edge. p's own head does not bound p
    // — only round trips through peers do, and those are captured by
    // the fixpoint.
    Cycles bound = noEvent;
    for (int q = 0; q < numPartitions_; ++q) {
        if (q == p)
            continue;
        bound = std::min(bound, satAdd(earliest[q], edge(q, p)));
    }
    return bound;
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
        // further communication.
        Cycles t_all = noEvent;
        for (int q = 0; q < numPartitions_; ++q) {
            t_all = std::min(
                t_all, parts_[q].published.load(std::memory_order_relaxed));
        }
        if (t_all == noEvent)
            break;

        Cycles earliest[maxPartitions];
        computeEarliest(earliest);
        const Cycles bound = windowBound(p, earliest);
        if (bound > satAdd(t_all, minLookahead_))
            ++part.widened;

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
    std::vector<std::thread> threads;
    threads.reserve(numPartitions_ - 1);
    for (int p = 1; p < numPartitions_; ++p)
        threads.emplace_back([this, p] { workerLoop(p); });
    workerLoop(0);
    for (std::thread &t : threads)
        t.join();
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
        stats_.widenedWindows += part.widened;
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
