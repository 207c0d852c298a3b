#include "run_stats.hh"

#include <string>

namespace swsm
{

double
RunStats::avgBucket(TimeBucket b) const
{
    if (finishTimes.empty())
        return 0.0;
    return static_cast<double>(sumBucket(b)) /
           static_cast<double>(finishTimes.size());
}

Cycles
RunStats::sumBucket(TimeBucket b) const
{
    return metrics.counter(std::string("time.") + timeBucketName(b));
}

Cycles
RunStats::sumAllBuckets() const
{
    Cycles sum = 0;
    for (int b = 0; b < numTimeBuckets; ++b)
        sum += sumBucket(static_cast<TimeBucket>(b));
    return sum;
}

double
RunStats::protoTimeFraction() const
{
    const Cycles total = sumAllBuckets();
    if (total == 0)
        return 0.0;
    Cycles proto = 0;
    for (int b = 0; b < numTimeBuckets; ++b) {
        if (isProtoBucket(static_cast<TimeBucket>(b)))
            proto += sumBucket(static_cast<TimeBucket>(b));
    }
    return static_cast<double>(proto) / static_cast<double>(total);
}

double
RunStats::bucketFraction(TimeBucket b) const
{
    const Cycles total = sumAllBuckets();
    if (total == 0)
        return 0.0;
    return static_cast<double>(sumBucket(b)) / static_cast<double>(total);
}

} // namespace swsm
