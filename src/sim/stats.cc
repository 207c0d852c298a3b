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

} // namespace swsm
