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

/** Protocol event counters (one instance per protocol object). */
struct ProtoStats
{
    Counter readFaults;        ///< read access faults / misses
    Counter writeFaults;       ///< write access faults / misses
    Counter pageFetches;       ///< whole page/block data fetches
    Counter diffsCreated;      ///< diffs computed at releases
    Counter diffWordsCompared; ///< words compared during diff creation
    Counter diffWordsWritten;  ///< changed words placed into diffs
    Counter diffsApplied;      ///< diffs merged at homes
    Counter twinsCreated;      ///< twins copied
    Counter invalidations;     ///< page/block invalidations performed
    Counter writeNotices;      ///< write notices sent/applied
    Counter lockRequests;      ///< remote lock acquire requests
    Counter lockHandoffs;      ///< lock grants between nodes
    Counter barrierEpisodes;   ///< completed barrier episodes
    Counter handlersRun;       ///< protocol handlers executed
    Counter protoMsgs;         ///< protocol messages sent (all kinds)
    Counter protoBytes;        ///< payload bytes in protocol messages
};

} // namespace swsm

#endif // SWSM_PROTO_PROTO_STATS_HH
