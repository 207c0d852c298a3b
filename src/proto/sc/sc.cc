#include "sc.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "check/check.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{
constexpr std::uint32_t smallPayload = 8;
} // namespace

ScProtocol::ScProtocol(AddressSpace &space, const ProtoParams &params,
                       std::vector<ProcEnv *> procs,
                       Cycles access_check_cycles)
    : Protocol(space.numNodes()), space(space), params(params),
      procs(std::move(procs)), numNodes(space.numNodes()),
      blockBytes(space.blockBytes()),
      accessCheckCycles(access_check_cycles)
{
    if (static_cast<int>(this->procs.size()) != numNodes)
        SWSM_FATAL("SC needs one ProcEnv per node");
    if (numNodes > 32)
        SWSM_FATAL("SC directory sharer bitmask supports up to 32 nodes");
    // The access table keeps the rights in the low bits of each copy's
    // address.
    if (blockBytes < wordBytes)
        SWSM_FATAL("SC blocks of %u bytes are smaller than a word (%u)",
                   blockBytes, wordBytes);
    // Grants and recalls copy a whole block in and out of its home's
    // store, which is one home per page: a larger block would span
    // pages whose homes can differ, and run past the store's end.
    if (blockBytes > space.pageBytes())
        SWSM_FATAL("SC blocks of %u bytes are larger than a page (%u)",
                   blockBytes, space.pageBytes());
    pendingApply.resize(numNodes);
    // A nonzero per-reference check charge must precede the hit test,
    // and that charge can yield into handlers, which an inline check
    // does not model: every reference then takes load()/store().
    offersInline_ = accessCheckCycles == 0;
}

void
ScProtocol::prepareRun(int num_locks, int num_barriers)
{
    // Size every shared table here, so no run ever grows one. A home
    // reads and writes its blocks in the home store while their
    // directory entries are idle.
    dir.resize(space.numBlocks());
    for (NodeId n = 0; n < numNodes; ++n)
        access_[n].resize(blockBytes, space.extent());
    for (BlockId b = 0; b < dir.size(); ++b) {
        const NodeId home = space.blockHome(b);
        access_[home].set(b, space.homeBytes(space.blockBase(b)),
                          homeRights(dir[b], home));
    }
    locks.resize(num_locks);
    barriers.resize(num_barriers);
}

ScProtocol::DirEntry &
ScProtocol::dirEntry(BlockId b)
{
    return dir[b];
}

std::uint8_t *
ScProtocol::localBytes(NodeId n, GlobalAddr addr)
{
    const BlockId b = space.blockOf(addr);
    return access_[n].bytes(b) + (addr - space.blockBase(b));
}

Rights
ScProtocol::homeRights(const DirEntry &d, NodeId home)
{
    if (d.busy || (d.state == DirEntry::DState::Excl && d.owner != home))
        return Rights::None;
    if (d.state == DirEntry::DState::Shared)
        return Rights::Read;
    return Rights::ReadWrite; // idle, or exclusive at the home
}

std::uint8_t *
ScProtocol::newCopy()
{
    if (copyFree < blockBytes) {
        const std::size_t chunk =
            std::max<std::size_t>(std::size_t{64} << 10, blockBytes);
        copyChunks.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(chunk));
        copyNext = copyChunks.back().get();
        copyFree = chunk;
    }
    std::uint8_t *copy = copyNext;
    copyNext += blockBytes;
    copyFree -= blockBytes;
    return copy;
}

void
ScProtocol::chargeAccessCheck(ProcEnv &env)
{
    if (accessCheckCycles)
        env.charge(accessCheckCycles, TimeBucket::ProtoOther);
}

// ---------------------------------------------------------------------
// Miss transactions
// ---------------------------------------------------------------------

void
ScProtocol::runPendingApply(NodeId n)
{
    if (pendingApply[n]) {
        pendingApply[n]();
        pendingApply[n] = nullptr;
    }
}

void
ScProtocol::grant(NodeEnv &henv, BlockId b, bool with_data)
{
    DirEntry &d = dirEntry(b);
    const NodeId n = d.requester;
    const bool write = d.reqWrite;
    const GlobalAddr base = space.blockBase(b);
    const NodeId home = space.blockHome(b);

    if (with_data && n != home) {
        std::vector<std::uint8_t> snap(space.homeBytes(base),
                                       space.homeBytes(base) + blockBytes);
        sendDat(henv, n, blockBytes,
                [this, n, b, base, write,
                 snap = std::move(snap)](Cycles t) {
                    AccessTable &at = access_[n];
                    std::uint8_t *copy = at.bytes(b);
                    if (!copy)
                        copy = newCopy();
                    std::memcpy(copy, snap.data(), blockBytes);
                    at.set(b, copy,
                           write ? Rights::ReadWrite : Rights::Read);
                    procs[n]->invalidateCacheRange(base, blockBytes);
                    runPendingApply(n);
                    procs[n]->unblock(t);
                },
                TimeBucket::ProtoHandler);
    } else {
        // Permission-only grant (upgrade, or the requester is the home).
        sendDat(henv, n, smallPayload,
                [this, n, b, write, home](Cycles t) {
                    if (n != home) {
                        SWSM_INVARIANT(access_[n].bytes(b) != nullptr,
                                       "permission grant of block %llu "
                                       "to node %d, which has no copy",
                                       static_cast<unsigned long long>(b),
                                       n);
                        access_[n].setRights(b, write ? Rights::ReadWrite
                                                      : Rights::Read);
                    }
                    runPendingApply(n);
                    procs[n]->unblock(t);
                },
                TimeBucket::ProtoHandler);
    }
}

void
ScProtocol::checkDirInvariant(BlockId b) const
{
    if (!check::enabled())
        return;
    const DirEntry &d = dir[b];
    const NodeId home = space.blockHome(b);
    const auto bid = static_cast<unsigned long long>(b);

    switch (d.state) {
      case DirEntry::DState::Idle:
        SWSM_INVARIANT(d.sharers == 0 && d.owner == invalidNode,
                       "idle directory entry for block %llu has "
                       "sharers %#x owner %d",
                       bid, d.sharers, d.owner);
        break;
      case DirEntry::DState::Shared:
        SWSM_INVARIANT(d.owner == invalidNode,
                       "shared block %llu has an owner (%d)", bid,
                       d.owner);
        SWSM_INVARIANT(d.sharers != 0,
                       "shared block %llu has an empty sharer set", bid);
        SWSM_INVARIANT(!(d.sharers & (1u << home)),
                       "home %d of block %llu is in its own sharer set",
                       home, bid);
        break;
      case DirEntry::DState::Excl:
        SWSM_INVARIANT(d.sharers == 0,
                       "exclusive block %llu has sharers %#x", bid,
                       d.sharers);
        SWSM_INVARIANT(d.owner >= 0 && d.owner < numNodes,
                       "exclusive block %llu has invalid owner %d", bid,
                       d.owner);
        break;
    }

    SWSM_INVARIANT(access_[home].rights(b) == homeRights(d, home),
                   "home %d holds rights to block %llu that its %s "
                   "directory entry does not leave it",
                   home, bid, d.busy ? "busy" : "idle");

    // Every valid remote copy must be covered by the directory. A copy
    // granted by the just-finished transaction installs at delivery
    // time, so a Shared copy under an Excl entry owned by the same
    // node (upgrade grant in flight) is legal.
    for (NodeId n = 0; n < numNodes; ++n) {
        if (n == home)
            continue;
        const Rights r = access_[n].rights(b);
        if (r == Rights::ReadWrite) {
            SWSM_INVARIANT(d.state == DirEntry::DState::Excl &&
                               d.owner == n,
                           "node %d holds an exclusive copy of block "
                           "%llu the directory does not record",
                           n, bid);
        } else if (r == Rights::Read) {
            SWSM_INVARIANT((d.state == DirEntry::DState::Shared &&
                            (d.sharers & (1u << n))) ||
                               (d.state == DirEntry::DState::Excl &&
                                d.owner == n),
                           "node %d holds a shared copy of block %llu "
                           "the directory does not record",
                           n, bid);
        }
    }
}

void
ScProtocol::finish(NodeEnv &henv, BlockId b)
{
    checkDirInvariant(b);
    DirEntry &d = dirEntry(b);
    d.busy = false;
    d.requester = invalidNode;
    const NodeId home = space.blockHome(b);
    access_[home].setRights(b, homeRights(d, home));
    if (!d.waiters.empty()) {
        const auto [n, write] = d.waiters.front();
        d.waiters.erase(d.waiters.begin());
        handleRequest(henv, b, n, write);
    }
}

void
ScProtocol::handleRequest(NodeEnv &henv, BlockId b, NodeId requester,
                          bool write)
{
    DirEntry &d = dirEntry(b);
    if (d.busy) {
        d.waiters.emplace_back(requester, write);
        return;
    }
    const NodeId home = space.blockHome(b);
    const GlobalAddr base = space.blockBase(b);
    SWSM_INVARIANT(access_[home].rights(b) == homeRights(d, home),
                   "home %d's rights to idle block %llu changed outside "
                   "a transaction",
                   home, static_cast<unsigned long long>(b));
    d.busy = true;
    d.requester = requester;
    d.reqWrite = write;
    // A busy entry leaves the home no rights until finish().
    access_[home].setRights(b, Rights::None);

    if (d.state == DirEntry::DState::Excl && d.owner != requester) {
        // Home-centric recall: the owner writes back through the home,
        // and the home issues the grant. Routing every grant through
        // the home keeps grants and later invalidations/recalls to the
        // same node on one FIFO channel, so a grant can never be
        // overtaken by an invalidation for the same block (the classic
        // 3-hop forwarding race).
        const NodeId o = d.owner;
        sendReq(henv, o, smallPayload,
                [this, b, base, write, home](NodeEnv &oenv) {
                    stats_.handlersRun.inc();
                    oenv.charge(params.scHandlerBase,
                                TimeBucket::ProtoHandler);
                    const NodeId o2 = oenv.node();
                    std::uint8_t *src = localBytes(o2, base);
                    std::vector<std::uint8_t> snap(src, src + blockBytes);
                    oenv.chargeCacheRange(base, blockBytes, false,
                                          TimeBucket::ProtoHandler);
                    if (o2 != home) {
                        access_[o2].setRights(b, write ? Rights::None
                                                       : Rights::Read);
                        if (write)
                            oenv.invalidateCacheRange(base, blockBytes);
                    }

                    // Writeback to the home, which updates the
                    // directory and issues the grant.
                    sendReq(oenv, home, smallPayload + blockBytes,
                            [this, b, base, o2, write,
                             snap = std::move(snap)](NodeEnv &henv2) {
                                stats_.handlersRun.inc();
                                henv2.charge(params.scHandlerBase,
                                             TimeBucket::ProtoHandler);
                                std::memcpy(space.homeBytes(base),
                                            snap.data(), snap.size());
                                henv2.chargeCacheRange(
                                    base, blockBytes, true,
                                    TimeBucket::ProtoHandler);
                                DirEntry &d2 = dirEntry(b);
                                const NodeId r = d2.requester;
                                const NodeId h2 = space.blockHome(b);
                                if (write) {
                                    d2.state = DirEntry::DState::Excl;
                                    d2.owner = r;
                                    d2.sharers = 0;
                                } else {
                                    d2.state = DirEntry::DState::Shared;
                                    d2.owner = invalidNode;
                                    d2.sharers = 0;
                                    if (o2 != h2)
                                        d2.sharers |= 1u << o2;
                                    if (r != h2)
                                        d2.sharers |= 1u << r;
                                }
                                grant(henv2, b, r != h2);
                                finish(henv2, b);
                            },
                            TimeBucket::ProtoHandler);
                },
                TimeBucket::ProtoHandler);
        return;
    }

    if (!write) {
        // Read from Idle/Shared: the home store is valid.
        if (requester != home) {
            d.state = DirEntry::DState::Shared;
            d.sharers |= 1u << requester;
        }
        grant(henv, b, requester != home);
        finish(henv, b);
        return;
    }

    // Write to Idle/Shared (or upgrade): invalidate other sharers.
    const std::uint32_t targets = d.sharers & ~(1u << requester);
    if (targets == 0) {
        const bool with_data = requester != home &&
            access_[requester].rights(b) == Rights::None;
        d.state = DirEntry::DState::Excl;
        d.owner = requester;
        d.sharers = 0;
        grant(henv, b, with_data);
        finish(henv, b);
        return;
    }

    d.pendingAcks = std::popcount(targets);
    henv.charge(static_cast<Cycles>(d.pendingAcks) * params.listPerElem,
                TimeBucket::ProtoHandler);
    stats_.invalidations.inc(d.pendingAcks);
    for (NodeId s = 0; s < numNodes; ++s) {
        if (!(targets & (1u << s)))
            continue;
        sendReq(henv, s, smallPayload,
                [this, b, base, home](NodeEnv &senv) {
                    stats_.handlersRun.inc();
                    senv.charge(params.scHandlerBase,
                                TimeBucket::ProtoHandler);
                    const NodeId s2 = senv.node();
                    // Fault injection (harness only): keep the stale
                    // copy readable but still ack, breaking SC.
                    if (!check::faultPlan().skipScInvalidate) {
                        if (s2 != home)
                            access_[s2].setRights(b, Rights::None);
                        senv.invalidateCacheRange(base, blockBytes);
                    }
                    // Ack back to the home.
                    sendReq(senv, home, smallPayload,
                            [this, b](NodeEnv &henv2) {
                                stats_.handlersRun.inc();
                                henv2.charge(params.scHandlerBase,
                                             TimeBucket::ProtoHandler);
                                DirEntry &d2 = dirEntry(b);
                                SWSM_INVARIANT(
                                    d2.pendingAcks > 0,
                                    "unexpected invalidation ack for "
                                    "block %llu",
                                    static_cast<unsigned long long>(b));
                                if (--d2.pendingAcks > 0)
                                    return;
                                const NodeId r = d2.requester;
                                const NodeId h2 =
                                    space.blockHome(b);
                                const bool with_data = r != h2 &&
                                    access_[r].rights(b) == Rights::None;
                                d2.state = DirEntry::DState::Excl;
                                d2.owner = r;
                                d2.sharers = 0;
                                grant(henv2, b, with_data);
                                finish(henv2, b);
                            },
                            TimeBucket::ProtoHandler);
                },
                TimeBucket::ProtoHandler);
    }
}

void
ScProtocol::startMiss(ProcEnv &env, BlockId b, bool write)
{
    const NodeId n = env.node();
    const NodeId home = space.blockHome(b);
    if (write)
        stats_.writeFaults.inc();
    else
        stats_.readFaults.inc();
    stats_.pageFetches.inc();

    const Cycles fetch_start = env.now();
    sendReq(env, home, smallPayload,
            [this, b, n, write](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.scHandlerBase, TimeBucket::ProtoHandler);
                handleRequest(henv, b, n, write);
            },
            TimeBucket::ProtoOther);
    env.block(TimeBucket::DataWait);
    if (trace_)
        trace_->complete("block_fetch", "proto", n, fetch_start, env.now(),
                         TraceArg{"block", b},
                         TraceArg{"home", static_cast<std::uint64_t>(home)});
}

// ---------------------------------------------------------------------
// Data access
// ---------------------------------------------------------------------

std::uint64_t
ScProtocol::load(ProcEnv &env, GlobalAddr addr, void *out,
                 std::uint64_t bytes)
{
    const BlockId b = space.blockOf(addr);
    const NodeId n = env.node();
    const std::uint64_t chunk = std::min<std::uint64_t>(
        bytes, space.blockBase(b) + blockBytes - addr);
    chargeAccessCheck(env);
    if (access_[n].rights(b) != Rights::None) {
        std::memcpy(out, localBytes(n, addr), chunk);
    } else {
        miss(env, b, false, [this, n, addr, out, chunk] {
            std::memcpy(out, localBytes(n, addr), chunk);
        });
    }
    return chunk;
}

std::uint64_t
ScProtocol::store(ProcEnv &env, GlobalAddr addr, const void *in,
                  std::uint64_t bytes)
{
    const BlockId b = space.blockOf(addr);
    const NodeId n = env.node();
    const std::uint64_t chunk = std::min<std::uint64_t>(
        bytes, space.blockBase(b) + blockBytes - addr);
    chargeAccessCheck(env);
    if (access_[n].rights(b) == Rights::ReadWrite) {
        std::memcpy(localBytes(n, addr), in, chunk);
    } else {
        // The store is bound to the grant: it is performed the moment
        // ownership is installed, before anyone can steal the block.
        miss(env, b, true, [this, n, addr, in, chunk] {
            std::memcpy(localBytes(n, addr), in, chunk);
        });
    }
    return chunk;
}

// ---------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------

void
ScProtocol::acquire(ProcEnv &env, LockId lock)
{
    const NodeId n = env.node();
    const NodeId mgr = static_cast<NodeId>(lock % numNodes);
    stats_.lockRequests.inc();

    const Cycles acquire_start = env.now();
    sendReq(env, mgr, smallPayload,
            [this, lock, n](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.scHandlerBase, TimeBucket::ProtoHandler);
                LockState &ls = locks[lock];
                if (!ls.held) {
                    ls.held = true;
                    ls.holder = n;
                    stats_.lockHandoffs.inc();
                    sendDat(henv, n, smallPayload,
                            [this, n](Cycles t) { procs[n]->unblock(t); },
                            TimeBucket::ProtoHandler);
                } else {
                    ls.queue.push_back(n);
                }
            },
            TimeBucket::ProtoOther);

    env.block(TimeBucket::LockWait);
    if (trace_)
        trace_->complete("lock_acquire", "sync", n, acquire_start, env.now(),
                         TraceArg{"lock", static_cast<std::uint64_t>(lock)});
}

void
ScProtocol::release(ProcEnv &env, LockId lock)
{
    const NodeId n = env.node();
    const NodeId mgr = static_cast<NodeId>(lock % numNodes);

    // SC makes writes visible eagerly, so release is just the lock op
    // (asynchronous: the releaser does not wait for the manager).
    sendReq(env, mgr, smallPayload,
            [this, lock, n](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.scHandlerBase, TimeBucket::ProtoHandler);
                LockState &ls = locks[lock];
                if (!ls.held || ls.holder != n) {
                    SWSM_PANIC("lock %d released by non-holder %d", lock,
                               n);
                }
                if (ls.queue.empty()) {
                    ls.held = false;
                    ls.holder = invalidNode;
                    return;
                }
                const NodeId next = ls.queue.front();
                ls.queue.erase(ls.queue.begin());
                ls.holder = next;
                stats_.lockHandoffs.inc();
                sendDat(henv, next, smallPayload,
                        [this, next](Cycles t) {
                            procs[next]->unblock(t);
                        },
                        TimeBucket::ProtoHandler);
            },
            TimeBucket::ProtoOther);
}

void
ScProtocol::barrier(ProcEnv &env, BarrierId barrier)
{
    const NodeId mgr = static_cast<NodeId>(barrier % numNodes);

    const Cycles barrier_start = env.now();
    sendReq(env, mgr, smallPayload,
            [this, barrier](NodeEnv &henv) {
                stats_.handlersRun.inc();
                henv.charge(params.scHandlerBase, TimeBucket::ProtoHandler);
                BarrierState &bs = barriers[barrier];
                if (++bs.arrived < numNodes)
                    return;
                stats_.barrierEpisodes.inc();
                bs.arrived = 0;
                for (NodeId j = 0; j < numNodes; ++j) {
                    sendDat(henv, j, smallPayload,
                            [this, j](Cycles t) { procs[j]->unblock(t); },
                            TimeBucket::ProtoHandler);
                }
            },
            TimeBucket::ProtoOther);

    env.block(TimeBucket::BarrierWait);
    if (trace_)
        trace_->complete("barrier", "sync", env.node(), barrier_start,
                         env.now(),
                         TraceArg{"barrier",
                                  static_cast<std::uint64_t>(barrier)});
}

// ---------------------------------------------------------------------
// Verification access
// ---------------------------------------------------------------------

void
ScProtocol::debugRead(GlobalAddr addr, void *out, std::uint64_t bytes)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    std::uint64_t done = 0;
    while (done < bytes) {
        const GlobalAddr a = addr + done;
        const BlockId b = space.blockOf(a);
        const GlobalAddr block_end = space.blockBase(b) + blockBytes;
        const std::uint64_t chunk =
            std::min<std::uint64_t>(bytes - done, block_end - a);
        const bool excl_remote = b < dir.size() &&
            dir[b].state == DirEntry::DState::Excl &&
            dir[b].owner != space.blockHome(b);
        if (excl_remote) {
            std::memcpy(dst + done, localBytes(dir[b].owner, a), chunk);
        } else {
            std::memcpy(dst + done, space.homeBytes(a), chunk);
        }
        done += chunk;
    }
}

void
ScProtocol::checkQuiescent() const
{
    for (std::size_t b = 0; b < dir.size(); ++b) {
        const DirEntry &d = dir[b];
        const auto bid = static_cast<unsigned long long>(b);
        SWSM_INVARIANT(!d.busy,
                       "block %llu ended with a transaction in flight",
                       bid);
        SWSM_INVARIANT(d.waiters.empty(),
                       "block %llu ended with %zu queued requests", bid,
                       d.waiters.size());
        SWSM_INVARIANT(d.pendingAcks == 0,
                       "block %llu ended awaiting %d invalidation acks",
                       bid, d.pendingAcks);
        checkDirInvariant(b);
    }
    for (NodeId n = 0; n < numNodes; ++n) {
        SWSM_INVARIANT(!pendingApply[n],
                       "node %d ended with an uninstalled access", n);
    }
    for (std::size_t l = 0; l < locks.size(); ++l) {
        SWSM_INVARIANT(!locks[l].held,
                       "lock %zu still held by node %d at end of run", l,
                       locks[l].holder);
        SWSM_INVARIANT(locks[l].queue.empty(),
                       "lock %zu ended with %zu queued waiters", l,
                       locks[l].queue.size());
    }
    for (const BarrierState &bs : barriers) {
        SWSM_INVARIANT(bs.arrived == 0,
                       "barrier ended with %d arrivals pending",
                       bs.arrived);
    }
}

} // namespace swsm
