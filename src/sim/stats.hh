/**
 * @file
 * Lightweight statistics package for simulation components.
 *
 * Components register named statistics in a StatGroup; the harness dumps
 * groups hierarchically. Three statistic kinds cover the paper's needs:
 * counters (message counts), accumulators (per-processor time buckets,
 * message sizes) and histograms (latency distributions).
 */

#ifndef SWSM_SIM_STATS_HH
#define SWSM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
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

/**
 * A named collection of statistics belonging to one component.
 *
 * StatGroup does not own the statistics; components embed them as members
 * and register pointers. Groups nest via child registration.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, const Counter *c);
    void addAccumulator(const std::string &name, const Accumulator *a);
    void addChild(const StatGroup *g);

    const std::string &name() const { return name_; }

    /** Dump all statistics, one "<prefix>.<name> <value>" line each. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::string name_;
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Accumulator *>> accumulators;
    std::vector<const StatGroup *> children;
};

} // namespace swsm

#endif // SWSM_SIM_STATS_HH
