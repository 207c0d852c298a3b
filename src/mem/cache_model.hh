/**
 * @file
 * Two-level set-associative cache timing model for one node.
 *
 * The model answers one question per access: how many stall cycles beyond
 * the 1-IPC issue cycle does this reference cost? It tracks tags with LRU
 * replacement in an 8 KB L1 and a 256 KB L2 (PentiumPro-like) and is also
 * used to model the cache pollution caused by protocol twin/diff
 * operations, which the paper simulates explicitly.
 *
 * Simplifications (documented in DESIGN.md): write-allocate with no extra
 * dirty-writeback penalty; no MSHR-level concurrency (the modeled
 * processor is in-order single-issue, so misses serialize anyway).
 */

#ifndef SWSM_MEM_CACHE_MODEL_HH
#define SWSM_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "mem/memory_params.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{

/** Per-node two-level cache with LRU tag arrays. */
class CacheModel
{
  public:
    explicit CacheModel(const MemoryParams &params);

    /**
     * Simulate one reference to @p addr.
     * @return stall cycles beyond the issue cycle (0 on an L1 hit).
     */
    Cycles
    access(GlobalAddr addr, bool write)
    {
        (void)write; // Allocate-on-write; no extra write penalty modeled.
        return accessLine(addr >> lineShift);
    }

    /**
     * Simulate a sequential walk over [addr, addr+bytes), one reference
     * per cache line; used for bulk copies and twin/diff pollution.
     * @return total stall cycles.
     */
    Cycles accessRange(GlobalAddr addr, std::uint64_t bytes, bool write);

    /**
     * Discard any cached lines in [addr, addr+bytes); used when a page or
     * block copy is replaced by fresh remote data deposited by the NI.
     */
    void invalidateRange(GlobalAddr addr, std::uint64_t bytes);

    const Counter &l1Hits() const { return l1Hits_; }
    const Counter &l1Misses() const { return l1Misses_; }
    const Counter &l2Hits() const { return l2Hits_; }
    const Counter &l2Misses() const { return l2Misses_; }

  private:
    /**
     * One tag array level. A set lists its ways' tags most recent
     * first, so the last way is the LRU one and empty ways (tag 0) sit
     * at the back. This keeps the same lines and evicts the same
     * victims as an LRU that records each way's time of last use
     * (tests/test_mem.cc keeps one as a reference): that LRU evicts an
     * empty way before any full one, and which empty way it picks
     * decides only where a line sits, not which lines stay.
     */
    struct Level
    {
        std::uint32_t numSets = 0;
        std::uint32_t assoc = 0;
        /** tags[set * assoc + way]; 0 means empty (tags are line+1). */
        std::vector<std::uint64_t> tags;

        void init(std::uint32_t bytes, std::uint32_t assoc_,
                  unsigned line_shift);

        /**
         * Make @p line the set's most recent: put its tag in way 0 and
         * shift the ways in front of it down one. On a miss the shift
         * runs off the end and evicts the last (LRU) way; a repeated
         * hit is one compare at way 0.
         * @return true on hit.
         */
        bool
        lookupInsert(std::uint64_t line)
        {
            const std::uint64_t tag = line + 1;
            std::uint64_t *set =
                &tags[static_cast<std::size_t>(line & (numSets - 1)) *
                      assoc];
            if (set[0] == tag)
                return true;
            std::uint64_t carry = set[0];
            set[0] = tag;
            for (std::uint32_t way = 1; way < assoc; ++way) {
                const std::uint64_t held = set[way];
                set[way] = carry;
                if (held == tag)
                    return true;
                carry = held;
            }
            return false;
        }

        /** Drop @p line, closing the gap and emptying the last way. */
        void invalidate(std::uint64_t line);
    };

    /** Reference line @p line (an address >> lineShift). */
    Cycles
    accessLine(std::uint64_t line)
    {
        if (l1.lookupInsert(line)) {
            l1Hits_.inc();
            return 0;
        }
        l1Misses_.inc();
        if (l2.lookupInsert(line)) {
            l2Hits_.inc();
            return l2HitCycles;
        }
        l2Misses_.inc();
        return memCycles;
    }

    Level l1;
    Level l2;
    /** log2 of the line size. */
    unsigned lineShift = 0;
    Cycles l2HitCycles;
    Cycles memCycles;

    Counter l1Hits_;
    Counter l1Misses_;
    Counter l2Hits_;
    Counter l2Misses_;
};

} // namespace swsm

#endif // SWSM_MEM_CACHE_MODEL_HH
