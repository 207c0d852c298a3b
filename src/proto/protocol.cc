#include "protocol.hh"

#include <algorithm>
#include <cstring>

namespace swsm
{

void
Protocol::readRange(ProcEnv &env, GlobalAddr addr, void *out,
                    std::uint64_t bytes)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    std::uint64_t done = 0;
    while (done < bytes) {
        const GlobalAddr a = addr + done;
        // Stay within one word-aligned word so single-access invariants
        // hold for any protocol granularity.
        const std::uint32_t in_word =
            wordBytes - static_cast<std::uint32_t>(a % wordBytes);
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(in_word, bytes - done));
        read(env, a, dst + done, n);
        done += n;
    }
}

void
Protocol::writeRange(ProcEnv &env, GlobalAddr addr, const void *in,
                     std::uint64_t bytes)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    std::uint64_t done = 0;
    while (done < bytes) {
        const GlobalAddr a = addr + done;
        const std::uint32_t in_word =
            wordBytes - static_cast<std::uint32_t>(a % wordBytes);
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(in_word, bytes - done));
        write(env, a, src + done, n);
        done += n;
    }
}

void
Protocol::registerMetrics(MetricsRegistry &registry) const
{
    const auto add = [&registry](const char *name,
                                 const ShardedCounter &c) {
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
