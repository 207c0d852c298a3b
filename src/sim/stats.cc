#include "stats.hh"

namespace swsm
{

namespace
{
thread_local int tlsStatShard = 0;
} // namespace

int
statShard()
{
    return tlsStatShard;
}

void
setStatShard(int shard)
{
    tlsStatShard = shard;
}

void
Histogram::sample(std::uint64_t v)
{
    unsigned bucket = 0;
    while (bucket + 1 < buckets.size() && v >= (1ULL << bucket))
        ++bucket;
    ++buckets[bucket];
    ++total;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = 0;
}

} // namespace swsm
