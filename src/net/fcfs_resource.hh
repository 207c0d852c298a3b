/**
 * @file
 * First-come-first-served contention resource.
 *
 * Models a serially-reusable hardware unit (I/O bus, NI processor) at
 * cluster network end points. Requests acquired in event order queue
 * behind the resource's next-free time; utilization statistics feed the
 * harness's contention reports. The paper models contention "in great
 * detail at all levels, including the network end-points, except in the
 * network links and switches themselves" — FCFS endpoint resources plus
 * contention-free wires implement exactly that.
 *
 * Besides the running counters, each resource keeps power-of-two
 * histograms of queueing delay and of occupancy per acquisition, which
 * the network merges across NICs into the run's metrics registry
 * (net.iobus.*, net.ni.*).
 */

#ifndef SWSM_NET_FCFS_RESOURCE_HH
#define SWSM_NET_FCFS_RESOURCE_HH

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

/** Serially-reusable resource with FCFS queueing. */
class FcfsResource
{
  public:
    /**
     * Occupy the resource for @p duration starting no earlier than
     * @p request_time.
     * @return completion time (>= request_time + duration).
     */
    Cycles
    acquire(Cycles request_time, Cycles duration)
    {
        const Cycles start = std::max(request_time, nextFree);
        queueing.sample(static_cast<double>(start - request_time));
        queueHist_.sample(start - request_time);
        busyHist_.sample(duration);
        busyCycles.inc(duration);
        uses.inc();
        nextFree = start + duration;
        return nextFree;
    }

    /** Cycles requests spent waiting for the resource. */
    const Accumulator &queueingDelay() const { return queueing; }
    /** Total occupied cycles (for utilization). */
    const Counter &totalBusyCycles() const { return busyCycles; }
    /** Number of acquisitions. */
    const Counter &totalUses() const { return uses; }
    /** Distribution of per-acquisition queueing delays. */
    const Histogram &queueDelayHist() const { return queueHist_; }
    /** Distribution of per-acquisition occupancy durations. */
    const Histogram &occupancyHist() const { return busyHist_; }

    /** Snapshot @p h into the registry's frozen histogram form. */
    static HistogramData
    histogramData(const Histogram &h)
    {
        HistogramData out;
        out.total = h.totalSamples();
        out.buckets.resize(h.numBuckets());
        for (unsigned i = 0; i < h.numBuckets(); ++i)
            out.buckets[i] = h.bucketCount(i);
        return out;
    }

  private:
    Cycles nextFree = 0;
    Accumulator queueing;
    Counter busyCycles;
    Counter uses;
    Histogram queueHist_;
    Histogram busyHist_;
};

} // namespace swsm

#endif // SWSM_NET_FCFS_RESOURCE_HH
