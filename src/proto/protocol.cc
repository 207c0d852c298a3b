#include "protocol.hh"

#include <algorithm>
#include <cstring>

#include "check/check.hh"
#include "sim/log.hh"

namespace swsm
{

Protocol::Protocol(AddressSpace &space, std::vector<ProcEnv *> procs)
    : space(space), procs(std::move(procs)), numNodes(space.numNodes()),
      access_(space.numNodes())
{
    if (static_cast<int>(this->procs.size()) != numNodes)
        SWSM_FATAL("a protocol needs one ProcEnv per node (%d nodes, %zu "
                   "environments)",
                   numNodes, this->procs.size());
}

std::uint64_t
Protocol::load(ProcEnv &env, GlobalAddr addr, void *out,
               std::uint64_t bytes)
{
    return reference(env, addr, static_cast<std::uint8_t *>(out), bytes,
                     false);
}

std::uint64_t
Protocol::store(ProcEnv &env, GlobalAddr addr, const void *in,
                std::uint64_t bytes)
{
    return reference(env, addr,
                     const_cast<std::uint8_t *>(
                         static_cast<const std::uint8_t *>(in)),
                     bytes, true);
}

std::uint64_t
Protocol::reference(ProcEnv &env, GlobalAddr addr, std::uint8_t *buf,
                    std::uint64_t bytes, bool write)
{
    const NodeId n = env.node();
    const AccessTable &t = access_[n];
    const std::size_t u = t.unitOf(addr);
    const Access access{u, addr - u * t.unitBytes(), buf,
                        std::min(bytes, t.unitEnd(addr) - addr), write};
    if (check::enabled())
        checkRights(n, u);
    if (write ? t.rights(u) == Rights::ReadWrite
              : t.rights(u) != Rights::None)
        perform(n, access);
    else
        fault(env, access);
    return access.bytes;
}

void
Protocol::perform(NodeId n, const Access &access)
{
    std::uint8_t *unit = access_[n].bytes(access.unit) + access.offset;
    if (access.write)
        std::memcpy(unit, access.buf, access.bytes);
    else
        std::memcpy(access.buf, unit, access.bytes);
}

void
Protocol::install(NodeId n, std::size_t u, const std::uint8_t *bytes,
                  Rights r)
{
    AccessTable &t = access_[n];
    const std::uint64_t unit_bytes = t.unitBytes();
    std::uint8_t *copy = t.bytes(u);
    if (!copy)
        copy = carveCopy(unit_bytes);
    std::memcpy(copy, bytes, unit_bytes);
    t.set(u, copy, r);
    procs[n]->invalidateCacheRange(u * unit_bytes, unit_bytes);
}

std::uint8_t *
Protocol::carveCopy(std::uint64_t unit_bytes)
{
    if (copyFree < unit_bytes) {
        const std::size_t chunk =
            std::max<std::size_t>(std::size_t{64} << 10, unit_bytes);
        copyChunks.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(chunk));
        copyNext = copyChunks.back().get();
        copyFree = chunk;
    }
    std::uint8_t *copy = copyNext;
    copyNext += unit_bytes;
    copyFree -= unit_bytes;
    return copy;
}

void
Protocol::registerMetrics(MetricsRegistry &registry) const
{
    const auto add = [&registry](const char *name,
                                 const Counter &c) {
        registry.addCounter(std::string("proto.") + name,
                            [&c] { return c.value(); });
    };
    add("read_faults", stats_.readFaults);
    add("write_faults", stats_.writeFaults);
    add("page_fetches", stats_.pageFetches);
    add("diffs_created", stats_.diffsCreated);
    add("diff_words_compared", stats_.diffWordsCompared);
    add("diff_words_written", stats_.diffWordsWritten);
    add("diffs_applied", stats_.diffsApplied);
    add("twins_created", stats_.twinsCreated);
    add("invalidations", stats_.invalidations);
    add("write_notices", stats_.writeNotices);
    add("lock_requests", stats_.lockRequests);
    add("lock_handoffs", stats_.lockHandoffs);
    add("barrier_episodes", stats_.barrierEpisodes);
    add("handlers_run", stats_.handlersRun);
    add("msgs", stats_.protoMsgs);
    add("bytes", stats_.protoBytes);
}

} // namespace swsm
