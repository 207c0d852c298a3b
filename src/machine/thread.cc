#include "thread.hh"

#include <algorithm>

#include "sim/log.hh"

namespace swsm
{

void
Thread::compute(Cycles cycles)
{
    const Cycles slice = cluster_.params().quantum;
    while (cycles > 0) {
        const Cycles c = std::min(cycles, slice);
        node_.charge(c, TimeBucket::Busy);
        cycles -= c;
    }
}

void
Thread::straddles(GlobalAddr addr, std::uint32_t bytes)
{
    SWSM_FATAL("the %u-byte reference at %#llx crosses a coherence-unit "
               "boundary; use readBytes/writeBytes for such extents",
               bytes, static_cast<unsigned long long>(addr));
}

void
Thread::outside(GlobalAddr addr, std::uint64_t bytes, std::uint64_t extent)
{
    SWSM_FATAL("the %llu-byte reference at %#llx lies outside the shared "
               "space, whose extent is %#llx bytes",
               static_cast<unsigned long long>(bytes),
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(extent));
}

void
Thread::unallocated(const char *what, int id, int count)
{
    SWSM_FATAL("%s %d was never allocated (the cluster has %d)", what, id,
               count);
}

} // namespace swsm
