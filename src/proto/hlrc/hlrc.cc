#include "hlrc.hh"

#include <algorithm>

#include "check/check.hh"
#include "sim/log.hh"

namespace swsm
{

HlrcProtocol::HlrcProtocol(AddressSpace &space, const ProtoParams &params,
                           std::vector<ProcEnv *> procs)
    : Protocol(space, std::move(procs)), params(params),
      pageBytes(space.pageBytes()),
      wordsPerPage(space.pageBytes() / wordBytes)
{
    nodes.resize(numNodes);
    intervals.resize(numNodes);
    for (auto &ns : nodes)
        ns.vc.assign(numNodes, 0);
}

void
HlrcProtocol::prepareRun(int num_locks, int num_barriers)
{
    // Size every shared table here, so no run ever grows one
    // mid-flight. Each lock starts with its token at its manager, which
    // is also the tail the first request chases. A home reads its
    // pages in the home store from the start.
    for (NodeId n = 0; n < numNodes; ++n) {
        nodes[n].pages.resize(space.numPages());
        access_[n].resize(pageBytes, space.extent());
    }
    for (PageId p = 0; p < space.numPages(); ++p) {
        access_[space.pageHome(p)].set(
            p, space.homeBytes(space.pageBase(p)), Rights::Read);
    }
    lastDiffSeq.resize(
        space.numPages() * static_cast<std::size_t>(numNodes), 0);
    lockTail.resize(num_locks);
    lockNodes.resize(static_cast<std::size_t>(num_locks) * numNodes);
    for (LockId l = 0; l < num_locks; ++l) {
        const NodeId mgr = lockManager(l);
        lockTail[l] = mgr;
        lockNode(l, mgr).holdsToken = true;
    }
    BarrierState fresh;
    fresh.arrivedVc.resize(numNodes);
    fresh.prevMerged.assign(numNodes, 0);
    barriers.resize(num_barriers, fresh);
}

std::uint32_t &
HlrcProtocol::lastDiffSeqAt(PageId p, NodeId n)
{
    return lastDiffSeq[p * numNodes + n];
}

HlrcProtocol::PageCopy &
HlrcProtocol::pageCopy(NodeId n, PageId p)
{
    return nodes.at(n).pages[p];
}

HlrcProtocol::NodeState &
HlrcProtocol::nodeState(NodeId n)
{
    return nodes.at(n);
}

void
HlrcProtocol::checkRights(NodeId n, std::size_t p) const
{
    if (!check::enabled())
        return;
    const PageCopy &pc = nodes[n].pages[p];
    const Rights r = access_[n].rights(p);
    const auto pid = static_cast<unsigned long long>(p);
    SWSM_INVARIANT((r == Rights::ReadWrite) == pc.dirty,
                   "page %llu on node %d is %s but %s", pid, n,
                   r == Rights::ReadWrite ? "read-write" : "not read-write",
                   pc.dirty ? "dirty" : "clean");
    if (space.pageHome(p) == n) {
        SWSM_INVARIANT(r != Rights::None,
                       "home %d has no rights to its page %llu", n, pid);
    } else if (r == Rights::ReadWrite) {
        SWSM_INVARIANT(pc.twin.size() == pageBytes,
                       "read-write page %llu on node %d has a %zu-byte "
                       "twin (expected %u)",
                       pid, n, pc.twin.size(), pageBytes);
    }
}

NodeId
HlrcProtocol::lockManager(LockId l) const
{
    return static_cast<NodeId>(l % numNodes);
}

NodeId
HlrcProtocol::barrierManager(BarrierId b) const
{
    return static_cast<NodeId>(b % numNodes);
}

GlobalAddr
HlrcProtocol::twinAddr(PageId p) const
{
    return (1ULL << 40) + p * static_cast<GlobalAddr>(pageBytes);
}

void
HlrcProtocol::chargeProtect(NodeEnv &env, std::uint64_t num_pages)
{
    if (num_pages == 0)
        return;
    env.charge(params.pageProtectCall +
                   num_pages * params.pageProtectPerPage,
               TimeBucket::ProtoProtect);
}

// ---------------------------------------------------------------------
// Data access
// ---------------------------------------------------------------------

void
HlrcProtocol::fetchPage(ProcEnv &env, PageId p)
{
    const NodeId n = env.node();
    const NodeId home = space.pageHome(p);
    const GlobalAddr base = space.pageBase(p);
    const Cycles fetch_start = env.now();
    stats_.pageFetches.inc();

    sendReq(env, home, smallPayload,
            [this, p, n, base](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.handlerBase, TimeBucket::ProtoHandler);
                // Snapshot the home copy; the NI will DMA it out. The
                // snapshot lives in the deposit closure.
                const std::uint8_t *home_copy = space.homeBytes(base);
                std::vector<std::uint8_t> snap(home_copy,
                                               home_copy + pageBytes);
                dataPathStats_.pageCopyCalls.inc();
                dataPathStats_.pageCopyBytes.inc(pageBytes);
                sendDat(henv, n, pageBytes,
                        [this, p, n, snap = std::move(snap)](Cycles t) {
                            install(n, p, snap.data(), Rights::Read);
                            dataPathStats_.pageCopyCalls.inc();
                            dataPathStats_.pageCopyBytes.inc(pageBytes);
                            procs[n]->unblock(t);
                        },
                        TimeBucket::ProtoHandler);
            },
            TimeBucket::ProtoOther);

    env.block(TimeBucket::DataWait);
    chargeProtect(env, 1);

    if (trace_) {
        trace_->complete("page_fetch", "proto", n, fetch_start, env.now(),
                         TraceArg{"page", p},
                         TraceArg{"home",
                                  static_cast<std::uint64_t>(home)});
    }
}

void
HlrcProtocol::makeTwin(ProcEnv &env, PageId p, PageCopy &pc)
{
    SWSM_INVARIANT(pc.twin.empty(),
                   "twin of page %llu recreated while live on node %d",
                   static_cast<unsigned long long>(p), env.node());
    SWSM_INVARIANT(space.pageHome(p) != env.node(),
                   "twin created for home page %llu on node %d",
                   static_cast<unsigned long long>(p), env.node());
    const std::uint8_t *bytes = access_[env.node()].bytes(p);
    pc.twin.assign(bytes, bytes + pageBytes);
    dataPathStats_.twinCopyCalls.inc();
    dataPathStats_.twinCopyBytes.inc(pageBytes);
    stats_.twinsCreated.inc();
    env.charge(static_cast<Cycles>(wordsPerPage) * params.twinPerWord,
               TimeBucket::ProtoTwin);
    // Twinning streams the page through the cache and writes the twin.
    // With idealized (zero) twin cost the paper's hypothetical hardware
    // does the copy without touching the processor cache.
    if (params.twinPerWord > 0) {
        env.chargeCacheRange(space.pageBase(p), pageBytes, false,
                             TimeBucket::ProtoTwin);
        env.chargeCacheRange(twinAddr(p), pageBytes, true,
                             TimeBucket::ProtoTwin);
    }
}

void
HlrcProtocol::discardTwin(PageCopy &pc)
{
    std::vector<std::uint8_t>().swap(pc.twin);
}

void
HlrcProtocol::enableWrite(ProcEnv &env, PageId p, PageCopy &pc)
{
    const NodeId n = env.node();
    SWSM_INVARIANT(access_[n].rights(p) != Rights::ReadWrite,
                   "write-enable of already writable page %llu on node %d",
                   static_cast<unsigned long long>(p), n);
    stats_.writeFaults.inc();
    if (space.pageHome(p) != n)
        makeTwin(env, p, pc);
    chargeProtect(env, 1);
    access_[n].setRights(p, Rights::ReadWrite);
    pc.dirty = true;
    nodeState(n).dirtyPages.push_back(p);
}

void
HlrcProtocol::fault(ProcEnv &env, const Access &access)
{
    const PageId p = access.unit;
    const NodeId n = env.node();
    if (access_[n].rights(p) == Rights::None) {
        stats_.readFaults.inc();
        fetchPage(env, p);
    }
    if (access.write)
        enableWrite(env, p, pageCopy(n, p));
    perform(n, access);
}

// ---------------------------------------------------------------------
// Diffs
// ---------------------------------------------------------------------

void
HlrcProtocol::sendDiff(NodeEnv &env, NodeId n, PageId p, PageCopy &pc)
{
    const GlobalAddr base = space.pageBase(p);
    const NodeId home = space.pageHome(p);

    SWSM_INVARIANT(pc.dirty,
                   "diff of clean page %llu on node %d",
                   static_cast<unsigned long long>(p), n);
    SWSM_INVARIANT(home != n,
                   "diff of home page %llu on node %d",
                   static_cast<unsigned long long>(p), n);
    SWSM_INVARIANT(pc.twin.size() == pageBytes,
                   "diff of page %llu on node %d with %zu-byte twin "
                   "(expected %u)",
                   static_cast<unsigned long long>(p), n, pc.twin.size(),
                   pageBytes);

    // Comparison against the twin, on real bytes: one dense word-by-
    // word pass over the whole page, as Table 3 charges it below.
    hlrcdiff::DiffWords words;
    hlrcdiff::diffWords(access_[n].bytes(p), pc.twin.data(), pageBytes, 0,
                        words);
    dataPathStats_.diffScanBytes.inc(pageBytes);
    dataPathStats_.diffScanCalls.inc();
    stats_.diffsCreated.inc();
    stats_.diffWordsCompared.inc(wordsPerPage);
    stats_.diffWordsWritten.inc(words.size());

    if (trace_) {
        trace_->instant("diff", "proto", n, env.now(),
                        TraceArg{"page", p},
                        TraceArg{"words", words.size()});
    }

    env.charge(static_cast<Cycles>(wordsPerPage) *
                       params.diffComparePerWord +
                   static_cast<Cycles>(words.size()) *
                       params.diffWritePerWord,
               TimeBucket::ProtoDiff);
    if (params.diffComparePerWord > 0) {
        env.chargeCacheRange(base, pageBytes, false,
                             TimeBucket::ProtoDiff);
        env.chargeCacheRange(twinAddr(p), pageBytes, false,
                             TimeBucket::ProtoDiff);
    }

    auto &ns = nodeState(n);
    ++ns.pendingAcks;

    // The sequence number of the interval this diff belongs to; the
    // home checks diffs from one writer arrive in interval order.
    // Non-strict: an early flush (false sharing) and a later re-dirty
    // can produce two diffs within the same open interval.
    const std::uint32_t diff_seq =
        static_cast<std::uint32_t>(intervals[n].size());

    const std::uint32_t diff_bytes =
        smallPayload + 8 * static_cast<std::uint32_t>(words.size());
    sendReq(env, home, diff_bytes,
            [this, p, n, diff_seq,
             words = std::move(words)](NodeEnv &henv) {
                stats_.handlersRun.inc();
                stats_.diffsApplied.inc();
                henv.charge(params.handlerBase +
                                static_cast<Cycles>(words.size()) *
                                    params.diffApplyPerWord,
                            TimeBucket::ProtoHandler);
                if (check::enabled()) {
                    auto &last = lastDiffSeqAt(p, n);
                    SWSM_INVARIANT(
                        diff_seq >= last,
                        "diff for page %llu from node %d arrived out of "
                        "interval order (seq %u after %u)",
                        static_cast<unsigned long long>(p), n, diff_seq,
                        last);
                    last = diff_seq;
                }
                applyDiff(henv, p, words);
                sendDat(henv, n, smallPayload,
                        [this, n](Cycles t) {
                            auto &rns = nodeState(n);
                            if (--rns.pendingAcks == 0 && rns.waitingAcks) {
                                rns.waitingAcks = false;
                                procs[n]->unblock(t);
                            }
                        },
                        TimeBucket::ProtoHandler);
            },
            TimeBucket::ProtoDiff);
}

void
HlrcProtocol::applyDiff(NodeEnv &env, PageId p,
                        const hlrcdiff::DiffWords &words)
{
    if (check::faultPlan().dropDiffApply)
        return; // fault injection: lose the diff's words (harness only)
    const GlobalAddr base = space.pageBase(p);
    // Charges first (same per-word order as before, so the cache model
    // sees the identical reference stream), then one store pass over
    // the home copy — the page is contiguous in the home store, so
    // word w lives at homeBytes(base) + w * wordBytes.
    if (params.diffApplyPerWord > 0) {
        for (const auto &[w, value] : words) {
            (void)value;
            env.chargeCacheRange(
                base + w * static_cast<GlobalAddr>(wordBytes), wordBytes,
                true, TimeBucket::ProtoDiff);
        }
    }
    hlrcdiff::applyWords(space.homeBytes(base), words);
    dataPathStats_.applyCalls.inc();
    dataPathStats_.applyWords.inc(words.size());
}

void
HlrcProtocol::waitForAcks(ProcEnv &env, TimeBucket wait_bucket)
{
    auto &ns = nodeState(env.node());
    SWSM_INVARIANT(ns.pendingAcks >= 0,
                   "negative pending diff acks (%d) on node %d",
                   ns.pendingAcks, env.node());
    if (ns.pendingAcks > 0) {
        ns.waitingAcks = true;
        env.block(wait_bucket);
    }
}

void
HlrcProtocol::flushInterval(ProcEnv &env, TimeBucket wait_bucket)
{
    const NodeId n = env.node();
    auto &ns = nodeState(n);
    if (ns.dirtyPages.empty() && ns.earlyFlushed.empty())
        return;

    // The interval's write notices: its dirty pages, then the pages
    // flushed early within it.
    IntervalRec notices = ns.dirtyPages;
    notices.insert(notices.end(), ns.earlyFlushed.begin(),
                   ns.earlyFlushed.end());
    std::uint64_t reprotect = 0;
    for (PageId p : ns.dirtyPages) {
        PageCopy &pc = pageCopy(n, p);
        if (space.pageHome(p) != n) {
            sendDiff(env, n, p, pc);
            discardTwin(pc);
        }
        pc.dirty = false;
        access_[n].setRights(p, Rights::Read);
        checkRights(n, p);
        ++reprotect;
    }
    ns.dirtyPages.clear();
    ns.earlyFlushed.clear();
    chargeProtect(env, reprotect);

    waitForAcks(env, wait_bucket);

    ns.vc[n] += 1;
    intervals[n].push_back(std::move(notices));
}

// ---------------------------------------------------------------------
// Write notices
// ---------------------------------------------------------------------

std::uint64_t
HlrcProtocol::countMissingNotices(const Vc &have, const Vc &upto) const
{
    std::uint64_t count = 0;
    for (NodeId j = 0; j < numNodes; ++j) {
        for (std::uint32_t k = have[j]; k < upto[j]; ++k)
            count += intervals[j][k].size();
    }
    return count;
}

void
HlrcProtocol::applyNotices(ProcEnv &env, const Vc &new_vc,
                           TimeBucket wait_bucket)
{
    const NodeId n = env.node();
    auto &ns = nodeState(n);

    std::vector<PageId> &to_invalidate = ns.noticeScratch;
    to_invalidate.clear();
    std::uint64_t processed = 0;
    for (NodeId j = 0; j < numNodes; ++j) {
        if (j == n)
            continue;
        for (std::uint32_t k = ns.vc[j];
             k < new_vc[j] && k < intervals[j].size(); ++k) {
            for (PageId p : intervals[j][k]) {
                ++processed;
                if (space.pageHome(p) == n)
                    continue; // the home copy is always current
                to_invalidate.push_back(p);
            }
        }
    }
    stats_.writeNotices.inc(processed);
    env.charge(processed * params.listPerElem, TimeBucket::ProtoOther);

    std::sort(to_invalidate.begin(), to_invalidate.end());
    to_invalidate.erase(
        std::unique(to_invalidate.begin(), to_invalidate.end()),
        to_invalidate.end());

    std::uint64_t protect_pages = 0;
    for (PageId p : to_invalidate) {
        checkRights(n, p);
        if (access_[n].rights(p) == Rights::None)
            continue;
        PageCopy &pc = pageCopy(n, p);
        if (pc.dirty) {
            // False sharing: our own concurrent words must reach the
            // home before we drop the copy.
            sendDiff(env, n, p, pc);
            discardTwin(pc);
            pc.dirty = false;
            auto &dp = ns.dirtyPages;
            dp.erase(std::remove(dp.begin(), dp.end(), p), dp.end());
            ns.earlyFlushed.push_back(p);
        }
        access_[n].setRights(p, Rights::None);
        stats_.invalidations.inc();
        ++protect_pages;
    }
    chargeProtect(env, protect_pages);

    for (NodeId j = 0; j < numNodes; ++j)
        ns.vc[j] = std::max(ns.vc[j], new_vc[j]);

    waitForAcks(env, wait_bucket);
}

// ---------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------

void
HlrcProtocol::tryGrant(NodeEnv &env, LockId lock)
{
    LockNodeState &lns = lockNode(lock, env.node());
    if (!lns.holdsToken || lns.inCs || lns.next == invalidNode)
        return;
    const NodeId r = lns.next;
    lns.next = invalidNode;
    lns.holdsToken = false;

    // The requester is blocked on its one outstanding acquire, so its
    // VC is still the one its request carried.
    auto &grantor = nodeState(env.node());
    Vc grant_vc = grantor.vc;
    const std::uint64_t notices =
        countMissingNotices(nodeState(r).vc, grant_vc);
    env.charge(notices * params.listPerElem, TimeBucket::ProtoOther);
    stats_.lockHandoffs.inc();

    const std::uint32_t bytes = smallPayload + vcBytes() +
        8 * static_cast<std::uint32_t>(notices);
    sendDat(env, r, bytes,
            [this, r, grant_vc = std::move(grant_vc)](Cycles t) {
                nodeState(r).stashedVc = grant_vc;
                procs[r]->unblock(t);
            },
            TimeBucket::ProtoOther);
}

void
HlrcProtocol::acquire(ProcEnv &env, LockId lock)
{
    const NodeId n = env.node();
    LockNodeState &lns = lockNode(lock, n);

    if (lns.holdsToken) {
        // Token cached from our last use and nobody asked for it since.
        lns.inCs = true;
        env.charge(10, TimeBucket::Busy);
        return;
    }

    stats_.lockRequests.inc();
    const Cycles acquire_start = env.now();
    auto &ns = nodeState(n);
    const NodeId mgr = lockManager(lock);
    sendReq(env, mgr, smallPayload + vcBytes(),
            [this, lock, n](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.handlerBase, TimeBucket::ProtoHandler);
                const NodeId target = lockTail[lock];
                lockTail[lock] = n;
                // Chase the token: forward the handoff to the queue
                // tail; it grants after its own acquire+release.
                sendReq(henv, target, smallPayload + vcBytes(),
                        [this, lock, n](NodeEnv &henv2) {
                            stats_.handlersRun.inc();
                            henv2.charge(params.handlerBase,
                                         TimeBucket::ProtoHandler);
                            LockNodeState &tail =
                                lockNode(lock, henv2.node());
                            SWSM_INVARIANT(tail.next == invalidNode,
                                           "lock %d: node %d handed "
                                           "successor %d while %d waits",
                                           lock, henv2.node(), n,
                                           tail.next);
                            tail.next = n;
                            tryGrant(henv2, lock);
                        },
                        TimeBucket::ProtoHandler);
            },
            TimeBucket::ProtoOther);

    env.block(TimeBucket::LockWait);

    lns.holdsToken = true;
    lns.inCs = true;
    applyNotices(env, ns.stashedVc, TimeBucket::LockWait);

    if (trace_) {
        trace_->complete("lock_acquire", "sync", n, acquire_start,
                         env.now(),
                         TraceArg{"lock",
                                  static_cast<std::uint64_t>(lock)});
    }
}

void
HlrcProtocol::release(ProcEnv &env, LockId lock)
{
    LockNodeState &lns = lockNode(lock, env.node());
    if (!lns.inCs)
        SWSM_FATAL("release of lock %d not held by node %d", lock,
                   env.node());
    flushInterval(env, TimeBucket::LockWait);
    lns.inCs = false;
    tryGrant(env, lock);
}

// ---------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------

void
HlrcProtocol::barrier(ProcEnv &env, BarrierId barrier)
{
    const NodeId n = env.node();
    const NodeId mgr = barrierManager(barrier);
    const Cycles barrier_start = env.now();
    flushInterval(env, TimeBucket::BarrierWait);

    auto &ns = nodeState(n);
    Vc my_vc = ns.vc;
    // The arrive message carries the write notices of our intervals the
    // manager has not merged yet.
    const BarrierState &pre = barriers[barrier];
    std::uint64_t fresh = 0;
    for (std::uint32_t k = pre.prevMerged[n]; k < my_vc[n]; ++k)
        fresh += intervals[n][k].size();
    const std::uint32_t arrive_bytes = smallPayload + vcBytes() +
        8 * static_cast<std::uint32_t>(fresh);

    sendReq(env, mgr, arrive_bytes,
            [this, barrier, n, fresh,
             my_vc = std::move(my_vc)](NodeEnv &henv) {
                stats_.handlersRun.inc();
                auto &bs = barriers[barrier];
                henv.charge(params.handlerBase +
                                fresh * params.listPerElem,
                            TimeBucket::ProtoHandler);
                bs.arrivedVc.at(n) = my_vc;
                if (++bs.arrived < numNodes)
                    return;

                // Last arrival: merge, then release everyone with the
                // notices they lack.
                stats_.barrierEpisodes.inc();
                Vc merged(numNodes, 0);
                for (NodeId j = 0; j < numNodes; ++j)
                    for (NodeId i = 0; i < numNodes; ++i)
                        merged[i] = std::max(merged[i],
                                             bs.arrivedVc[j][i]);
                for (NodeId j = 0; j < numNodes; ++j) {
                    const std::uint64_t lack =
                        countMissingNotices(bs.arrivedVc[j], merged);
                    henv.charge(lack * params.listPerElem,
                                TimeBucket::ProtoHandler);
                    const std::uint32_t bytes = smallPayload + vcBytes() +
                        8 * static_cast<std::uint32_t>(lack);
                    sendDat(henv, j, bytes,
                            [this, j, merged](Cycles t) {
                                nodeState(j).stashedVc = merged;
                                procs[j]->unblock(t);
                            },
                            TimeBucket::ProtoHandler);
                }
                bs.arrived = 0;
                bs.prevMerged = merged;
            },
            TimeBucket::ProtoOther);

    env.block(TimeBucket::BarrierWait);
    applyNotices(env, ns.stashedVc, TimeBucket::BarrierWait);

    if (trace_) {
        trace_->complete("barrier", "sync", n, barrier_start, env.now(),
                         TraceArg{"barrier",
                                  static_cast<std::uint64_t>(barrier)});
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

void
HlrcProtocol::registerMetrics(MetricsRegistry &registry) const
{
    Protocol::registerMetrics(registry);

    // Host data-path telemetry: the bytes and words each loop handles.
    // The same in every host mode (every diff scans its whole page), so
    // tools/bench_diff.py compares it like any other counter.
    const auto kernel = [&registry](const char *name,
                                    const Counter &c) {
        registry.addCounter(std::string("mem.simd_") + name,
                            [&c] { return c.value(); });
    };
    kernel("diff_scan_calls", dataPathStats_.diffScanCalls);
    kernel("diff_scan_bytes", dataPathStats_.diffScanBytes);
    kernel("twin_copy_calls", dataPathStats_.twinCopyCalls);
    kernel("twin_copy_bytes", dataPathStats_.twinCopyBytes);
    kernel("apply_calls", dataPathStats_.applyCalls);
    kernel("apply_words", dataPathStats_.applyWords);
    kernel("page_copy_calls", dataPathStats_.pageCopyCalls);
    kernel("page_copy_bytes", dataPathStats_.pageCopyBytes);
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

void
HlrcProtocol::checkQuiescent() const
{
    for (NodeId n = 0; n < numNodes; ++n) {
        const NodeState &ns = nodes[n];
        SWSM_INVARIANT(ns.pendingAcks == 0,
                       "node %d ended with %d pending diff acks", n,
                       ns.pendingAcks);
        SWSM_INVARIANT(!ns.waitingAcks,
                       "node %d ended while waiting for diff acks", n);
        for (std::size_t p = 0; p < ns.pages.size(); ++p) {
            const PageCopy &pc = ns.pages[p];
            SWSM_INVARIANT(pc.twin.empty() || pc.dirty,
                           "node %d ended with a live twin of clean "
                           "page %llu",
                           n, static_cast<unsigned long long>(p));
            checkRights(n, p);
        }
    }
    for (std::size_t l = 0; l < lockTail.size(); ++l) {
        int holders = 0;
        for (NodeId n = 0; n < numNodes; ++n) {
            const LockNodeState &lns = lockNodes[l * numNodes + n];
            if (lns.holdsToken)
                ++holders;
            SWSM_INVARIANT(!lns.inCs,
                           "node %d ended inside a critical section", n);
            SWSM_INVARIANT(lns.next == invalidNode,
                           "node %d ended with a lock handoff to node %d "
                           "queued",
                           n, lns.next);
        }
        SWSM_INVARIANT(holders == 1,
                       "lock token held by %d nodes at end of run "
                       "(expected 1)",
                       holders);
    }
    for (const BarrierState &bs : barriers) {
        SWSM_INVARIANT(bs.arrived == 0,
                       "barrier ended with %d arrivals pending",
                       bs.arrived);
    }
}

} // namespace swsm
