/**
 * @file
 * Results of one simulated application run.
 */

#ifndef SWSM_MACHINE_RUN_STATS_HH
#define SWSM_MACHINE_RUN_STATS_HH

#include <vector>

#include "obs/metrics.hh"
#include "sim/types.hh"

namespace swsm
{

/**
 * One run's results: the finish times, and every count and time bucket
 * as a metrics snapshot. The bucket accessors read the time.* counters
 * (per-bucket sums over processors).
 */
struct RunStats
{
    /** Parallel execution time: the last processor's finish time. */
    Cycles totalCycles = 0;
    /** Per-processor finish times. */
    std::vector<Cycles> finishTimes;

    /**
     * The full metrics registry snapshot: protocol and network counts,
     * kernel scheduling stats, per-resource histograms and the Figure 4
     * time buckets. BenchReport serializes it.
     */
    MetricsSnapshot metrics;

    /** Mean over processors of bucket @p b, in cycles. */
    double avgBucket(TimeBucket b) const;
    /** Sum over processors of bucket @p b, in cycles. */
    Cycles sumBucket(TimeBucket b) const;
    /** Sum over processors of all buckets, in cycles. */
    Cycles sumAllBuckets() const;
    /** Fraction of aggregate processor time spent in protocol buckets. */
    double protoTimeFraction() const;
    /** Fraction of aggregate time in one bucket. */
    double bucketFraction(TimeBucket b) const;
};

} // namespace swsm

#endif // SWSM_MACHINE_RUN_STATS_HH
