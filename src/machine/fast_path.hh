/**
 * @file
 * Per-node software TLB for the simulation data path.
 *
 * Every shared access an application makes otherwise goes through a
 * virtual Protocol::load/store with a page-table lookup. Following the
 * Wisconsin Wind Tunnel / Shasta split, the FastPath caches the
 * *resolved* outcome of that lookup — "this address range is directly
 * accessible at these host bytes" — so the common hit case is copied
 * inline by Thread without virtual dispatch. Only host-side lookup
 * work is elided: Thread charges every reference itself, after the
 * copy, whichever way the bytes moved, so simulated time and all
 * protocol counters are bit-identical with the fast path on or off
 * (tests/test_fastpath.cc enforces this).
 *
 * The table is direct-mapped over the protocol's coherence-unit index
 * (page for HLRC/Ideal, block for SC). Protocols install entries on
 * their slow-path hit/fill paths and must invalidate on *every* state
 * transition that could revoke access (invalidate, downgrade, busy
 * directory, ...); a missing install only costs speed, a missing
 * invalidation costs correctness.
 *
 * Header-only and dependent only on sim/types.hh so the protocol
 * layer can include it without linking the machine library.
 */

#ifndef SWSM_MACHINE_FAST_PATH_HH
#define SWSM_MACHINE_FAST_PATH_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace swsm
{

/** Direct-mapped access-resolution cache for one node. */
class FastPath
{
  public:
    /**
     * One resolved mapping: addresses in [base, limit) may be
     * accessed directly at data + (addr - base). An empty range
     * (base > limit) marks the slot invalid.
     */
    struct Entry
    {
        GlobalAddr base = 1;  ///< inclusive; base > limit = invalid
        GlobalAddr limit = 0; ///< exclusive
        std::uint8_t *data = nullptr; ///< host bytes backing the range
        bool writable = false;
    };

    static constexpr std::uint32_t logSlots = 8;
    static constexpr std::size_t numSlots = std::size_t{1} << logSlots;

    /**
     * Bind the table to a protocol's geometry.
     * @param index_shift log2 of the coherence unit (slot index bits)
     */
    void
    configure(std::uint32_t index_shift)
    {
        indexShift_ = index_shift;
        invalidateAll();
    }

    /**
     * Resolve an access of @p bytes at @p addr. Returns the covering
     * entry on a hit (range covered, and writable if @p write), null
     * on a miss. Counts hits/misses.
     */
    Entry *
    lookup(GlobalAddr addr, std::uint32_t bytes, bool write)
    {
        Entry &e = slots_[slotOf(addr)];
        if (addr >= e.base && addr + bytes <= e.limit &&
            (!write || e.writable)) {
            ++hits_;
            return &e;
        }
        ++misses_;
        return nullptr;
    }

    /**
     * Install a mapping for one coherence unit ([base, limit) must not
     * span slot-index boundaries; it lands in base's slot, evicting
     * whatever was there).
     */
    void
    install(GlobalAddr base, GlobalAddr limit, std::uint8_t *data,
            bool writable)
    {
        Entry &e = slots_[slotOf(base)];
        e.base = base;
        e.limit = limit;
        e.data = data;
        e.writable = writable;
        ++installs_;
    }

    /**
     * Install one mapping covering the whole space into every slot
     * (Ideal: the home store is one contiguous always-valid buffer, so
     * any address hits from its own slot and bulk ranges resolve as a
     * single run).
     */
    void
    installGlobal(GlobalAddr base, GlobalAddr limit, std::uint8_t *data,
                  bool writable)
    {
        for (Entry &e : slots_) {
            e.base = base;
            e.limit = limit;
            e.data = data;
            e.writable = writable;
        }
        ++installs_;
    }

    /** Drop every entry overlapping [base, limit). */
    void
    invalidateRange(GlobalAddr base, GlobalAddr limit)
    {
        // One coherence unit maps to one slot; hit it directly and
        // fall back to a sweep only for multi-slot ranges.
        if (limit - base <= (GlobalAddr{1} << indexShift_)) {
            Entry &e = slots_[slotOf(base)];
            if (e.base < limit && base < e.limit)
                reset(e);
            return;
        }
        for (Entry &e : slots_) {
            if (e.base < limit && base < e.limit)
                reset(e);
        }
    }

    /** Drop every entry. */
    void
    invalidateAll()
    {
        for (Entry &e : slots_)
            reset(e);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t installs() const { return installs_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    std::size_t
    slotOf(GlobalAddr addr) const
    {
        return (addr >> indexShift_) & (numSlots - 1);
    }

    void
    reset(Entry &e)
    {
        if (e.base < e.limit)
            ++invalidations_;
        e.base = 1;
        e.limit = 0;
        e.data = nullptr;
        e.writable = false;
    }

    std::array<Entry, numSlots> slots_{};
    std::uint32_t indexShift_ = 12;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t installs_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace swsm

#endif // SWSM_MACHINE_FAST_PATH_HH
