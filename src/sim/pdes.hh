/**
 * @file
 * Time-windowed conservative parallel discrete-event engine.
 *
 * A PdesEngine partitions an EventQueue's execution slots (cluster
 * nodes) across worker threads and advances all partitions in bounded
 * time windows. The window bound comes from one lookahead L: the
 * minimum latency between an event executing in one partition and the
 * earliest cross-partition event it can schedule (in the machine
 * layer, Network::lookahead(), the cost of the wire hop).
 *
 * Each window round:
 *
 *   1. every worker drains the mailboxes addressed to its partition
 *      (messages produced in the previous window) into its local heap,
 *   2. publishes the timestamp of its earliest pending event and waits
 *      at a barrier,
 *   3. every worker independently computes the same per-partition
 *      window bound (below) and executes its local events with
 *      timestamp below its bound; cross-partition schedules are
 *      appended to single-producer mailbox vectors,
 *   4. all workers wait at a second barrier and loop.
 *
 * Window bound. From the published heads, partition p runs every event
 * strictly below
 *
 *     bound[p] = min(head[p] + L, min over q != p of head[q]) + L
 *
 * (saturating adds). Soundness: at a round boundary no mail is in
 * flight, so every event still to run descends from a pending one
 * through local schedules, which never go back in time, and mail
 * hops, which each add at least L. An event in a peer q != p thus runs
 * at >= min over q != p of head[q] if its chain starts in a peer, and
 * at >= head[p] + L if it starts in p (the chain has to leave p). Any
 * message to p is sent by such an event and arrives at least L later,
 * at >= bound[p], so executing p's events strictly below bound[p]
 * never runs past an undelivered message. Dropping the head[p] + L
 * term (bounding p by its peers alone) is unsound: p's own mail wakes
 * a peer whose reply lands in p's past.
 *
 * Determinism: events carry (when, stamp) with stamp =
 * (scheduling slot << 48 | per-slot seq) assigned by the EventQueue.
 * Per-slot event sequences are identical to the serial kernel's by
 * induction, so each partition executes the serial order restricted to
 * its slots, and every simulated time, counter and emitted byte is
 * bit-identical to a serial run. The mailboxes need no locks: each
 * (src, dst) vector has exactly one producer per window and is
 * consumed only after the barrier, whose acquire/release ordering
 * publishes the entries.
 */

#ifndef SWSM_SIM_PDES_HH
#define SWSM_SIM_PDES_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace swsm
{

/** Deterministic end-of-run statistics of one parallel run. */
struct PdesRunStats
{
    std::uint64_t partitions = 0;
    /** Window rounds executed (barrier pairs). */
    std::uint64_t windows = 0;
    /** Cross-partition events routed through mailboxes. */
    std::uint64_t mailboxEvents = 0;
    /** Events executed by the busiest partition. */
    std::uint64_t maxPartitionEvents = 0;
    /** Events executed per partition (index = partition). */
    std::vector<std::uint64_t> partitionEvents;
};

/**
 * Runs one EventQueue to completion on several worker threads.
 *
 * The engine is built per run: construct with a slot-to-partition map
 * and a lookahead, call run(), read stats(). While run() is
 * live the queue routes schedule()/now() to the engine; afterwards the
 * queue is back in serial mode with its counters merged (events
 * scheduled/run sum over partitions; max pending is the max over
 * partitions).
 */
class PdesEngine
{
  public:
    /** Upper bound on worker threads (and stat shards, see stats.hh). */
    static constexpr int maxPartitions = 16;

    /** Sentinel for parallelSchedule: keep the scheduling slot. */
    static constexpr std::uint32_t sameSlot = ~0u;

    /** "No pending event" time sentinel. */
    static constexpr Cycles noEvent = ~static_cast<Cycles>(0);

    /**
     * @param eq queue to drain (its pending events seed the partitions)
     * @param partition_of slot -> partition, one entry per queue slot;
     *        values in [0, num_partitions)
     * @param num_partitions worker count, in [2, maxPartitions]
     * @param lookahead minimum gap, > 0, between an event and any
     *        cross-partition event it schedules
     */
    PdesEngine(EventQueue &eq, std::vector<int> partition_of,
               int num_partitions, Cycles lookahead);

    ~PdesEngine();

    PdesEngine(const PdesEngine &) = delete;
    PdesEngine &operator=(const PdesEngine &) = delete;

    /**
     * Run until every partition drains. Rethrows the first (by
     * partition index) exception thrown by an event. Returns the number
     * of events executed.
     */
    std::uint64_t run();

    /** Deterministic run statistics (valid after run()). */
    const PdesRunStats &stats() const { return stats_; }

    /**
     * Verify every mailbox was drained (SWSM_CHECK). A clean run always
     * drains them — an entry left behind means a window advanced past
     * an undelivered message, which breaks the conservative contract.
     */
    void checkDrained() const;

  private:
    friend class EventQueue;

    using Event = EventHeap::Event;

    /**
     * Sense-reversing barrier for the window rounds. A waiter spins
     * only while every live partition worker in the process can have a
     * core; otherwise it yields at once.
     */
    class Barrier
    {
      public:
        explicit Barrier(int parties) : parties_(parties) {}
        void wait();

      private:
        const int parties_;
        std::atomic<int> arrived_{0};
        std::atomic<int> sense_{0};
    };

    struct alignas(64) Partition
    {
        EventHeap heap;
        Cycles now = 0;
        std::uint32_t slot = 0;
        std::uint64_t executed = 0;
        std::uint64_t scheduled = 0;
        std::uint64_t mailed = 0;
        std::uint64_t windows = 0;
        std::size_t maxPending = 0;
        std::exception_ptr error;
        /** Earliest pending event time, published at the barrier. */
        std::atomic<Cycles> published{0};
    };

    static Cycles
    satAdd(Cycles a, Cycles b)
    {
        const Cycles s = a + b;
        return s < a ? noEvent : s;
    }

    /** Called by EventQueue while the run is live. */
    void parallelSchedule(std::uint32_t exec_slot, Cycles when, EventFn fn);

    void workerLoop(int p);
    void executeWindow(Partition &part, Cycles window_end);
    void pushLocal(Partition &part, Event &&ev);
    /** Move a whole mailbox into the partition's heap. */
    void drainBox(Partition &part, std::vector<Event> &box);

    EventQueue &eq_;
    const std::vector<int> partitionOf_;
    const int numPartitions_;
    const Cycles lookahead_;
    std::vector<Partition> parts_;
    /** Mailboxes, indexed [src * P + dst]; single producer per window. */
    std::vector<std::vector<Event>> boxes_;
    Barrier barrier_;
    std::atomic<bool> abort_{false};
    PdesRunStats stats_;
};

} // namespace swsm

#endif // SWSM_SIM_PDES_HH
