/**
 * @file
 * The global shared address space and its home distribution.
 *
 * Both protocols operate on one flat, byte-addressed shared space carved
 * out by a bump allocator. Every page has a *home* node; fine-grained
 * blocks inherit the home of the page containing them (homes are
 * distributed at page granularity, as in Typhoon-zero-style systems).
 * The address space also owns the authoritative *home store* — the byte
 * contents of every page as seen at its home — which the protocols keep
 * coherent. Applications place data via explicit home hints (mirroring
 * the data distribution the SPLASH-2 programs perform) or round-robin.
 */

#ifndef SWSM_PROTO_ADDRESS_SPACE_HH
#define SWSM_PROTO_ADDRESS_SPACE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace swsm
{

/** Flat shared address space with per-page homes and home storage. */
class AddressSpace
{
  public:
    /**
     * @param num_nodes cluster size (homes range over [0, num_nodes))
     * @param page_bytes SVM page size (power of two)
     * @param block_bytes fine-grained coherence block size (power of two,
     *                    <= page_bytes or a multiple of it)
     */
    AddressSpace(int num_nodes, std::uint32_t page_bytes,
                 std::uint32_t block_bytes);

    /**
     * Allocate @p bytes, aligned to @p align (power of two; at least the
     * natural alignment callers need). Newly covered pages get
     * round-robin homes unless setRangeHome overrides them.
     * @return base address of the allocation
     */
    GlobalAddr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /**
     * Allocate @p bytes in whole pages homed entirely at @p home
     * (distribution hint for partitioned data).
     */
    GlobalAddr allocAt(std::uint64_t bytes, NodeId home);

    /** Override the home of every page overlapping [addr, addr+bytes). */
    void setRangeHome(GlobalAddr addr, std::uint64_t bytes, NodeId home);

    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint32_t blockBytes() const { return blockBytes_; }
    int numNodes() const { return numNodes_; }

    /** Total allocated bytes. */
    std::uint64_t size() const { return brk; }
    /** Number of pages covering the allocated space. */
    std::uint64_t numPages() const { return pageHomes.size(); }
    /**
     * The bytes the home store backs, numPages() x pageBytes(): every
     * reference must lie below it.
     */
    std::uint64_t extent() const { return store.size(); }
    /** Number of blocks covering the extent. */
    std::uint64_t
    numBlocks() const
    {
        return (extent() + blockBytes_ - 1) / blockBytes_;
    }

    PageId pageOf(GlobalAddr a) const { return a / pageBytes_; }
    BlockId blockOf(GlobalAddr a) const { return a / blockBytes_; }
    GlobalAddr pageBase(PageId p) const { return p * pageBytes_; }
    GlobalAddr blockBase(BlockId b) const { return b * blockBytes_; }

    /** Home node of page @p p. @pre p covers allocated space */
    NodeId pageHome(PageId p) const { return pageHomes.at(p); }
    /** Home node of block @p b (inherited from its page). */
    NodeId
    blockHome(BlockId b) const
    {
        return pageHomes.at(blockBase(b) / pageBytes_);
    }

    /** Authoritative home-store bytes (protocols read/write these). */
    std::uint8_t *homeBytes(GlobalAddr a) { return &store.at(a); }
    const std::uint8_t *homeBytes(GlobalAddr a) const { return &store.at(a); }

    /** Untimed initialization write into the home store. */
    void initWrite(GlobalAddr a, const void *src, std::uint64_t bytes);
    /** Untimed read from the home store (for debugging/verification). */
    void initRead(GlobalAddr a, void *dst, std::uint64_t bytes) const;

  private:
    void growTo(std::uint64_t new_brk);

    int numNodes_;
    std::uint32_t pageBytes_;
    std::uint32_t blockBytes_;
    std::uint64_t brk = 0;
    std::vector<NodeId> pageHomes;
    std::vector<std::uint8_t> store;
    NodeId nextHome = 0;
};

} // namespace swsm

#endif // SWSM_PROTO_ADDRESS_SPACE_HH
