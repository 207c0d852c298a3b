#include "protocol.hh"

namespace swsm
{

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
