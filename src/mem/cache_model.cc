#include "cache_model.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace swsm
{

namespace
{

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
CacheModel::Level::init(std::uint32_t bytes, std::uint32_t assoc_,
                        unsigned line_shift)
{
    // The set count, lines / assoc rounded down, must be a power of
    // two: look for it among the powers of two, which also rejects an
    // associativity of 0 instead of dividing by it.
    const std::uint64_t lines = std::uint64_t{bytes} >> line_shift;
    assoc = assoc_;
    numSets = 0;
    for (std::uint64_t sets = 1; sets <= lines; sets <<= 1) {
        if (sets * assoc <= lines && lines < (sets + 1) * assoc)
            numSets = static_cast<std::uint32_t>(sets);
    }
    if (numSets == 0)
        SWSM_FATAL("cache level needs a power-of-two number of sets");
    tags.assign(static_cast<std::size_t>(numSets) * assoc, 0);
}

void
CacheModel::Level::invalidate(std::uint64_t line)
{
    std::uint64_t *set =
        &tags[static_cast<std::size_t>(line & (numSets - 1)) * assoc];
    std::uint64_t *end = set + assoc;
    std::uint64_t *way = std::find(set, end, line + 1);
    if (way == end)
        return;
    std::copy(way + 1, end, way);
    end[-1] = 0;
}

CacheModel::CacheModel(const MemoryParams &params)
    : l2HitCycles(params.l2HitCycles), memCycles(params.memCycles)
{
    if (!isPow2(params.lineBytes))
        SWSM_FATAL("cache line size must be a power of two");
    lineShift = static_cast<unsigned>(std::countr_zero(params.lineBytes));
    l1.init(params.l1Bytes, params.l1Assoc, lineShift);
    l2.init(params.l2Bytes, params.l2Assoc, lineShift);
}

Cycles
CacheModel::accessRange(GlobalAddr addr, std::uint64_t bytes, bool write)
{
    (void)write;
    if (bytes == 0)
        return 0;
    Cycles total = 0;
    const std::uint64_t last = (addr + bytes - 1) >> lineShift;
    for (std::uint64_t line = addr >> lineShift; line <= last; ++line)
        total += accessLine(line);
    return total;
}

void
CacheModel::invalidateRange(GlobalAddr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const std::uint64_t last = (addr + bytes - 1) >> lineShift;
    for (std::uint64_t line = addr >> lineShift; line <= last; ++line) {
        l1.invalidate(line);
        l2.invalidate(line);
    }
}

} // namespace swsm
