/**
 * @file
 * Lightweight statistics package for simulation components.
 *
 * Components embed these statistics as members and publish them under
 * dotted names through the metrics registry (obs/metrics.hh). Three
 * statistic kinds cover the paper's needs: counters (event counts),
 * accumulators (queueing delays) and histograms (delay and occupancy
 * distributions).
 */

#ifndef SWSM_SIM_STATS_HH
#define SWSM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace swsm
{

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Calling thread's statistics shard, in [0, maxStatShards). 0 for
 * ordinary (serial) threads; the parallel event engine (sim/pdes.hh)
 * assigns each worker its partition index so that per-shard counters
 * need no synchronization.
 */
int statShard();
void setStatShard(int shard);

/**
 * Counter sharded across the parallel event engine's worker threads.
 *
 * inc() adds to the calling thread's shard (cache-line padded, no
 * atomics); value() sums the shards and must only be called while no
 * concurrent inc() is possible (between runs). The final sum is
 * independent of how increments were distributed, so a partitioned run
 * reports exactly the serial totals. Drop-in for Counter in components
 * whose events execute on different partitions (protocol stats, the
 * network and message layer).
 */
class ShardedCounter
{
  public:
    static constexpr int maxStatShards = 16;

    void inc(std::uint64_t n = 1) { shards_[statShard()].v += n; }

    void
    reset()
    {
        for (Shard &s : shards_)
            s.v = 0;
    }

    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const Shard &s : shards_)
            sum += s.v;
        return sum;
    }

  private:
    struct alignas(64) Shard
    {
        std::uint64_t v = 0;
    };

    Shard shards_[maxStatShards];
};

/** Running sum / count / min / max / mean of samples. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Power-of-two bucketed histogram of non-negative samples. */
class Histogram
{
  public:
    /** @param num_buckets bucket i holds samples in [2^(i-1), 2^i). */
    explicit Histogram(unsigned num_buckets = 32)
        : buckets(num_buckets, 0)
    {}

    void sample(std::uint64_t v);
    void reset();

    std::uint64_t bucketCount(unsigned i) const { return buckets.at(i); }
    unsigned numBuckets() const { return buckets.size(); }
    std::uint64_t totalSamples() const { return total; }

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
};

} // namespace swsm

#endif // SWSM_SIM_STATS_HH
