/**
 * @file
 * Event counters common to the coherence protocols.
 *
 * Time accounting lives in the processors' TimeBucket breakdowns; these
 * counters record protocol *events* (faults, diffs, invalidations,
 * messages by type) used by Table 4 and by the analysis sections.
 */

#ifndef SWSM_PROTO_PROTO_STATS_HH
#define SWSM_PROTO_PROTO_STATS_HH

#include "sim/stats.hh"

namespace swsm
{

/**
 * Protocol event counters (one instance per protocol object).
 *
 * Sharded: protocol actions execute on whichever node's context fires
 * the event, so under the parallel engine (sim/pdes.hh) different
 * partitions increment concurrently; the per-thread shards make that
 * race-free and the summed totals are identical to a serial run.
 */
struct ProtoStats
{
    ShardedCounter readFaults;       ///< read access faults / misses
    ShardedCounter writeFaults;      ///< write access faults / misses
    ShardedCounter pageFetches;      ///< whole page/block data fetches
    ShardedCounter diffsCreated;     ///< diffs computed at releases
    ShardedCounter diffWordsCompared;///< words compared during diff creation
    ShardedCounter diffWordsWritten; ///< changed words placed into diffs
    ShardedCounter diffsApplied;     ///< diffs merged at homes
    ShardedCounter twinsCreated;     ///< twins copied
    ShardedCounter invalidations;    ///< page/block invalidations performed
    ShardedCounter writeNotices;     ///< write notices sent/applied
    ShardedCounter lockRequests;     ///< remote lock acquire requests
    ShardedCounter lockHandoffs;     ///< lock grants between nodes
    ShardedCounter barrierEpisodes;  ///< completed barrier episodes
    ShardedCounter handlersRun;      ///< protocol handlers executed
    ShardedCounter protoMsgs;        ///< protocol messages sent (all kinds)
    ShardedCounter protoBytes;       ///< payload bytes in protocol messages
};

} // namespace swsm

#endif // SWSM_PROTO_PROTO_STATS_HH
