/**
 * @file
 * Home-based Lazy Release Consistency (HLRC) page-grained SVM protocol.
 *
 * The protocol of Zhou, Iftode and Li as used in the paper:
 *
 *  - lazy release consistency with vector timestamps, intervals and
 *    write notices (the multiple-writer LRC model of TreadMarks);
 *  - software twins and word-granularity diffs to support multiple
 *    concurrent writers of a page;
 *  - *home-based* diff handling: at a release, the writer eagerly sends
 *    each dirty page's diff to the page's home, where it is applied to
 *    the home copy, which is therefore always up to date with respect to
 *    the consistency model; a page fault fetches the whole page from the
 *    home instead of collecting distributed diffs;
 *  - distributed-queue locks whose grant messages carry the write
 *    notices the acquirer lacks, and a centralized barrier whose release
 *    messages do the same.
 *
 * Diffs, twins and page copies operate on real bytes, so applications
 * produce correct results only if the protocol is correct.
 */

#ifndef SWSM_PROTO_HLRC_HLRC_HH
#define SWSM_PROTO_HLRC_HLRC_HH

#include <cstdint>
#include <vector>

#include "machine/fast_path.hh"
#include "proto/address_space.hh"
#include "proto/hlrc/diff.hh"
#include "proto/proto_params.hh"
#include "proto/protocol.hh"
#include "sim/stable_vector.hh"
#include "sim/stats.hh"

namespace swsm
{

/** The paper's page-based SVM protocol. */
class HlrcProtocol : public Protocol
{
  public:
    /**
     * @param space shared address space (homes + home store)
     * @param params protocol layer costs (Table 3 knobs)
     * @param procs per-node fiber environments, indexed by NodeId
     */
    HlrcProtocol(AddressSpace &space, const ProtoParams &params,
                 std::vector<ProcEnv *> procs);

    const char *name() const override { return "hlrc"; }

    void read(ProcEnv &env, GlobalAddr addr, void *out,
              std::uint32_t bytes) override;
    void write(ProcEnv &env, GlobalAddr addr, const void *in,
               std::uint32_t bytes) override;
    void readRange(ProcEnv &env, GlobalAddr addr, void *out,
                   std::uint64_t bytes) override;
    void writeRange(ProcEnv &env, GlobalAddr addr, const void *in,
                    std::uint64_t bytes) override;
    void acquire(ProcEnv &env, LockId lock) override;
    void release(ProcEnv &env, LockId lock) override;
    void barrier(ProcEnv &env, BarrierId barrier) override;
    void debugRead(GlobalAddr addr, void *out,
                   std::uint64_t bytes) override;
    void checkQuiescent() const override;

    /**
     * Every HLRC action mutates only the state of the node it runs on.
     * The cross-node *reads* follow message chains, which the parallel
     * engine's window barriers turn into real happens-before edges:
     * interval records during notice counting follow message-carried
     * vector clocks (StableVector keeps the records at stable
     * addresses), and the tail's tryGrant reads the requester's
     * requestVc only after the request -> manager -> tail chain. The
     * requester wrote that slot on its own fiber just before sending
     * the request and, blocked on its one outstanding acquire, cannot
     * rewrite it before the grant arrives.
     */
    bool partitionSafe() const override { return true; }
    void prepareRun(int partitions, int num_locks,
                    int num_barriers) override;

    /**
     * proto.* counters plus the HLRC data-path telemetry mem.simd_*
     * (bytes and words handed to the twin, diff and apply loops).
     */
    void registerMetrics(MetricsRegistry &registry) const override;

  private:
    /** Vector timestamp: per node, the number of its intervals seen. */
    using Vc = std::vector<std::uint32_t>;

    /** Page access state on one node. */
    enum class PState : std::uint8_t { Invalid, ReadOnly, ReadWrite };

    /** One node's copy of one page. Home nodes use the home store. */
    struct PageCopy
    {
        PState state = PState::Invalid;
        bool dirty = false;
        /** Empty on the page's home. */
        std::vector<std::uint8_t> data;
        /** Non-empty while writable; allocated at the write fault and
         *  freed at the flush. */
        std::vector<std::uint8_t> twin;
    };

    /** A closed interval: the pages its node dirtied (its notices). */
    using IntervalRec = std::vector<PageId>;

    /** Per-node protocol state. */
    struct NodeState
    {
        std::vector<PageCopy> pages;
        Vc vc;                         ///< seen intervals (own included)
        std::vector<PageId> dirtyPages;///< current interval's dirty set
        /** Pages force-flushed early at an acquire (false sharing);
         *  still announced in the next interval's write notices. */
        std::vector<PageId> earlyFlushed;
        /** Outstanding diff acks the node is waiting for. */
        int pendingAcks = 0;
        bool waitingAcks = false;
        /** Grant/barrier-release payload stashed by data closures. */
        Vc stashedVc;
        /** The VC of this node's outstanding lock request (see
         *  partitionSafe()); read by the granting tail. */
        Vc requestVc;
        /** Scratch page list reused across applyNotices calls. */
        std::vector<PageId> noticeScratch;
    };

    /**
     * Per-(lock, node) token state, one 8-byte record in lockNodes.
     * A node is handed at most one waiter before it passes the token
     * on: it becomes the tail again only through a new request, which
     * it sends only after its grant used up that waiter. So one
     * successor field replaces a queue (checked where it is stored).
     */
    struct LockNodeState
    {
        bool holdsToken = false;
        bool inCs = false;
        NodeId next = invalidNode; ///< the waiter to grant to, if any
    };
    static_assert(sizeof(LockNodeState) == 8);

    /** Per-barrier manager state (lives at barrier % numNodes). */
    struct BarrierState
    {
        int arrived = 0;
        std::vector<Vc> arrivedVc;
        Vc prevMerged; ///< merged VC at the previous episode
    };

    PageCopy &pageCopy(NodeId n, PageId p);
    NodeState &nodeState(NodeId n);
    /** The token state of lock @p l on node @p n. */
    LockNodeState &lockNode(LockId l, NodeId n)
    {
        return lockNodes[static_cast<std::size_t>(l) * numNodes + n];
    }

    NodeId lockManager(LockId l) const;
    NodeId barrierManager(BarrierId b) const;

    /** Synthetic address of the twin buffer (cache pollution model). */
    GlobalAddr twinAddr(PageId p) const;

    /** Charge a batched mprotect covering @p num_pages pages. */
    void chargeProtect(NodeEnv &env, std::uint64_t num_pages);

    /** Fetch page @p p from its home into @p n's copy; blocks. */
    void fetchPage(ProcEnv &env, PageId p);

    /** Create the twin of page @p p on node env.node(). */
    void makeTwin(ProcEnv &env, PageId p, PageCopy &pc);

    /** Free @p pc's twin. */
    void discardTwin(PageCopy &pc);

    /** Node @p n's access fast path, or nullptr when disabled. */
    FastPath *fastPath(NodeId n) { return procs[n]->fastPath(); }

    /** Publish @p n's resolved copy of @p p to its fast path. */
    void installFast(NodeId n, PageId p, PageCopy &pc);
    /** Publish a home-store mapping of @p p on its home node @p n. */
    void installFastHome(NodeId n, PageId p, bool writable);
    /** Drop any fast-path entry covering @p p on node @p n. */
    void invalidateFastPage(NodeId n, PageId p);

    /** Transition @p p to ReadWrite on env.node(), twinning if needed. */
    void enableWrite(ProcEnv &env, PageId p, PageCopy &pc);

    /**
     * Compute @p p's diff on node @p n against its twin (charging env),
     * send it to the home, and count one pending ack.
     * @pre the page is dirty and not homed at n
     */
    void sendDiff(NodeEnv &env, NodeId n, PageId p, PageCopy &pc);

    /** Apply @p words (offset, value) pairs to @p p's home copy. */
    void applyDiff(NodeEnv &env, PageId p,
                   const hlrcdiff::DiffWords &words);

    /**
     * Close the current interval: diff every dirty page to its home,
     * wait for acks, append the interval record and advance the VC.
     * Wait time lands in @p wait_bucket.
     */
    void flushInterval(ProcEnv &env, TimeBucket wait_bucket);

    /** Block @p env until all pending diff acks arrive. */
    void waitForAcks(ProcEnv &env, TimeBucket wait_bucket);

    /** Count write-notice pages node @p n lacks relative to @p have. */
    std::uint64_t countMissingNotices(const Vc &have, const Vc &upto) const;

    /**
     * Invalidate the pages named by notices in (ns.vc, new_vc],
     * force-flushing dirty falsely-shared pages, then merge VCs.
     */
    void applyNotices(ProcEnv &env, const Vc &new_vc,
                      TimeBucket wait_bucket);

    /** Grant the lock token to the head waiter if possible. */
    void tryGrant(NodeEnv &env, LockId lock);

    /** Statistics/size helper: wrap sendRequest with byte accounting. */
    void sendReq(NodeEnv &env, NodeId dst, std::uint32_t bytes,
                 HandlerFn fn, TimeBucket bucket);
    /** Statistics/size helper: wrap sendData with byte accounting. */
    void sendDat(NodeEnv &env, NodeId dst, std::uint32_t bytes,
                 DataFn fn, TimeBucket bucket);

    AddressSpace &space;
    ProtoParams params;
    std::vector<ProcEnv *> procs;
    int numNodes;
    std::uint32_t pageBytes;
    std::uint32_t wordsPerPage;

    std::vector<NodeState> nodes;
    /**
     * Global interval log: intervals[n][k] is node n's interval k+1.
     * Appended only by node n; other nodes read records below counts
     * they learned from n's vector clocks, so the inner container must
     * keep elements at stable addresses while n appends (StableVector).
     */
    std::vector<StableVector<IntervalRec>> intervals;
    /**
     * Invariant-checker state (SWSM_CHECK): per (page, writer), the
     * interval sequence number of the last diff applied at the home —
     * diffs must arrive in interval order (FIFO channel semantics).
     * Flat array keyed page-index × node (sized by prepareRun); the
     * old std::map cost a red-black-tree walk per diff on the hot path.
     */
    std::vector<std::uint32_t> lastDiffSeq;
    /** The lastDiffSeq slot for (@p p, @p n). */
    std::uint32_t &lastDiffSeqAt(PageId p, NodeId n);
    /** lockNodes[l * numNodes + n]: lock l's token state on node n. */
    std::vector<LockNodeState> lockNodes;
    /** Per lock, the last requester: the queue tail the token chases
     *  (manager state, at lock % numNodes). */
    std::vector<NodeId> lockTail;
    std::vector<BarrierState> barriers;

    /** VC bytes on the wire (paper-faithful sizing of sync messages). */
    std::uint32_t vcBytes() const { return 4u * numNodes; }

    /**
     * Host-side data-path telemetry (mem.simd_*; the names stay
     * because the benchmark reads them). Counts calls and bytes handed
     * to the diff/twin/apply loops and page copies; sharded because
     * diff application runs on the home node's partition. Every diff
     * scans its whole page, so they are the same with the fast path
     * on or off and belong to the equivalence checks.
     */
    struct DataPathStats
    {
        ShardedCounter diffScanCalls;
        ShardedCounter diffScanBytes;
        ShardedCounter twinCopyCalls;
        ShardedCounter twinCopyBytes;
        ShardedCounter applyCalls;
        ShardedCounter applyWords;
        ShardedCounter pageCopyCalls;
        ShardedCounter pageCopyBytes;
    };
    DataPathStats dataPathStats_;
};

} // namespace swsm

#endif // SWSM_PROTO_HLRC_HLRC_HH
