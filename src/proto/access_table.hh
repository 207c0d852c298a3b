/**
 * @file
 * One node's access rights to the shared space, one entry per
 * coherence unit.
 *
 * The paper's access control is a check of each unit's state: HLRC's
 * page states, which the real system keeps with mprotect, and the
 * block states that Typhoon-zero checks in hardware under SC. An
 * AccessTable is that state. For each unit (an HLRC page, an SC
 * block; Ideal has one unit spanning the space) it records the host
 * bytes behind the node's copy and the node's rights to them: none,
 * read, or read-write. A protocol writes an entry where the unit's
 * state changes and reads it back on its own slow path; Thread reads
 * it inline, so a hit installs nothing and a transition has nothing
 * else to invalidate.
 *
 * An entry is one word: the bytes pointer, with the rights in its two
 * low bits. Units are therefore at least a word long, and a unit's
 * bytes are word-aligned.
 *
 * Header-only and dependent only on the sim layer, so that Thread can
 * inline lookup().
 */

#ifndef SWSM_PROTO_ACCESS_TABLE_HH
#define SWSM_PROTO_ACCESS_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace swsm
{

/** A node's rights to one coherence unit. */
enum class Rights : std::uintptr_t
{
    None = 0,
    Read = 1,      ///< the read bit
    ReadWrite = 3, ///< the read bit and the write bit
};

/** Per-unit access state of one node. */
class AccessTable
{
  public:
    /**
     * Cover [0, @p limit) with units of @p unit_bytes (a power of two
     * of at least a word). Every unit starts with no bytes and no
     * rights. Called once per run; entries never move afterwards.
     */
    void
    resize(std::uint64_t unit_bytes, GlobalAddr limit)
    {
        if (!std::has_single_bit(unit_bytes) || unit_bytes < wordBytes)
            SWSM_FATAL("a %llu-byte coherence unit is not a power of two "
                       "of at least a word (%u bytes)",
                       static_cast<unsigned long long>(unit_bytes),
                       wordBytes);
        shift_ = static_cast<std::uint32_t>(std::countr_zero(unit_bytes));
        limit_ = limit;
        entries_.assign((limit + unit_bytes - 1) >> shift_, 0);
    }

    /** Give unit @p u the word-aligned @p bytes and rights @p r. */
    void
    set(std::size_t u, std::uint8_t *bytes, Rights r)
    {
        const auto p = reinterpret_cast<std::uintptr_t>(bytes);
        if (p & rightsMask)
            SWSM_PANIC("unit %zu's bytes are not word-aligned", u);
        entries_[u] = p | static_cast<std::uintptr_t>(r);
    }

    /** Change unit @p u's rights; its bytes stay. */
    void
    setRights(std::size_t u, Rights r)
    {
        entries_[u] = (entries_[u] & ~rightsMask) |
            static_cast<std::uintptr_t>(r);
    }

    Rights
    rights(std::size_t u) const
    {
        return static_cast<Rights>(entries_[u] & rightsMask);
    }

    /** The bytes of unit @p u (null until set()). */
    std::uint8_t *
    bytes(std::size_t u) const
    {
        return reinterpret_cast<std::uint8_t *>(entries_[u] & ~rightsMask);
    }

    /**
     * The host bytes of [@p addr, @p addr + @p bytes) if the reference
     * lies inside the table, ends inside the unit it starts in, and the
     * node holds the rights it needs; null otherwise. Counts hits and
     * misses. @pre bytes >= 1
     */
    std::uint8_t *
    lookup(GlobalAddr addr, std::uint32_t bytes, bool write)
    {
        // A wrapped last byte differs from addr in bit 63, so it fails
        // the same-unit test.
        const GlobalAddr last = addr + bytes - 1;
        if (last < limit_ && ((addr ^ last) >> shift_) == 0) {
            const std::uintptr_t e = entries_[addr >> shift_];
            if (e & (write ? writeBit : readBit)) {
                ++hits_;
                return reinterpret_cast<std::uint8_t *>(e & ~rightsMask) +
                    (addr & ((GlobalAddr{1} << shift_) - 1));
            }
        }
        ++misses_;
        return nullptr;
    }

    /** The unit holding @p addr. */
    std::size_t unitOf(GlobalAddr addr) const { return addr >> shift_; }

    /** Bytes per unit. */
    std::uint64_t unitBytes() const { return std::uint64_t{1} << shift_; }

    /** End of the unit holding @p addr, clipped to the table's limit. */
    GlobalAddr
    unitEnd(GlobalAddr addr) const
    {
        return std::min(((addr >> shift_) + 1) << shift_, limit_);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    static constexpr std::uintptr_t readBit = 1;
    static constexpr std::uintptr_t writeBit = 2;
    static constexpr std::uintptr_t rightsMask = readBit | writeBit;
    static_assert(wordBytes > rightsMask);

    std::vector<std::uintptr_t> entries_;
    std::uint32_t shift_ = 0;
    GlobalAddr limit_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace swsm

#endif // SWSM_PROTO_ACCESS_TABLE_HH
