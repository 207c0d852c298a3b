/**
 * @file
 * Free-list recycling of page-sized buffers, diff word vectors and
 * write-notice page lists.
 *
 * HLRC's twin/diff lifecycle used to allocate a fresh page buffer at
 * every write fault and release it (clear + shrink_to_fit) at every
 * interval flush, to allocate a fresh diff word vector per diff, and a
 * fresh page-id vector per interval record. On diff-heavy runs that is
 * several allocator round trips per page per interval on the
 * simulator's hottest path. The pool keeps returned buffers (with
 * their capacity) on per-node free lists so steady-state twin
 * creation, diffing and page fetching perform no heap allocation at
 * all; the NoticeArena slab-allocates interval page lists (which live
 * until the end of the run) at stable addresses.
 *
 * Page buffers are 32-byte aligned (mem/aligned.hh) so the SIMD diff
 * and twin kernels never see a cache-line-splitting load; the HLRC
 * twin path asserts the contract under SWSM_CHECK.
 *
 * Purely a host-side optimization: buffer contents are always
 * (re)initialized by the caller, so simulated behaviour is unchanged.
 * One simulation runs single-threaded per node partition, so the pool
 * needs no locking. The alloc/reuse split each pool reports is
 * deterministic — it depends only on the per-node sequence of protocol
 * events, which is bit-identical across host modes (fast path, SIMD,
 * serial vs. partitioned kernel) — so the proto.pool_* metrics built
 * from these counters participate in the equivalence checks.
 */

#ifndef SWSM_PROTO_PAGE_BUFFER_POOL_HH
#define SWSM_PROTO_PAGE_BUFFER_POOL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/aligned.hh"
#include "sim/types.hh"

namespace swsm
{

/** Per-node free lists for twin buffers and diff word vectors. */
class PageBufferPool
{
  public:
    using Bytes = AlignedBytes;
    using DiffWords = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

    /**
     * An empty byte buffer, reusing a returned one (and its capacity)
     * when available.
     */
    Bytes
    acquirePage()
    {
        if (pages_.empty()) {
            ++pageAllocs_;
            return Bytes{};
        }
        ++pageReuses_;
        Bytes b = std::move(pages_.back());
        pages_.pop_back();
        return b;
    }

    /** Return a byte buffer to the free list. */
    void
    releasePage(Bytes b)
    {
        b.clear();
        pages_.push_back(std::move(b));
    }

    /** An empty diff word vector, reusing capacity when available. */
    DiffWords
    acquireWords()
    {
        if (words_.empty()) {
            ++wordAllocs_;
            return DiffWords{};
        }
        ++wordReuses_;
        DiffWords w = std::move(words_.back());
        words_.pop_back();
        return w;
    }

    /** Return a diff word vector to the free list. */
    void
    releaseWords(DiffWords w)
    {
        w.clear();
        words_.push_back(std::move(w));
    }

    std::uint64_t pageAllocs() const { return pageAllocs_; }
    std::uint64_t pageReuses() const { return pageReuses_; }
    std::uint64_t wordAllocs() const { return wordAllocs_; }
    std::uint64_t wordReuses() const { return wordReuses_; }
    std::size_t freePages() const { return pages_.size(); }
    std::size_t freeWordVectors() const { return words_.size(); }

  private:
    std::vector<Bytes> pages_;
    std::vector<DiffWords> words_;
    std::uint64_t pageAllocs_ = 0;
    std::uint64_t pageReuses_ = 0;
    std::uint64_t wordAllocs_ = 0;
    std::uint64_t wordReuses_ = 0;
};

/**
 * Slab allocator for interval-record page lists (write notices).
 *
 * An HLRC interval record names the pages its interval dirtied; the
 * record lives until the end of the run and is read by other nodes
 * (below vector-clock counts they learned from its writer), so its
 * page list needs a stable address but never individual deallocation.
 * The arena packs the lists into large slabs: one bump-pointer
 * allocation per interval instead of one heap vector, and a new slab
 * only every few thousand notices. Slabs are never moved or freed
 * until the arena dies, giving the same stability guarantee as the
 * StableVector holding the records themselves.
 */
class NoticeArena
{
  public:
    /**
     * Stable storage for @p count page ids (nullptr when count == 0).
     * The caller fills the returned array; it stays valid for the
     * arena's lifetime.
     */
    PageId *
    alloc(std::size_t count)
    {
        if (count == 0)
            return nullptr;
        if (used_ + count > cap_) {
            cap_ = std::max(count, minSlabIds);
            slabs_.push_back(std::make_unique<PageId[]>(cap_));
            used_ = 0;
            ++slabAllocs_;
        } else {
            ++slabReuses_;
        }
        PageId *out = slabs_.back().get() + used_;
        used_ += count;
        return out;
    }

    /** Slabs allocated (one heap allocation each). */
    std::uint64_t slabAllocs() const { return slabAllocs_; }
    /** Interval lists served from an already-allocated slab. */
    std::uint64_t slabReuses() const { return slabReuses_; }

  private:
    static constexpr std::size_t minSlabIds = 4096;

    std::vector<std::unique_ptr<PageId[]>> slabs_;
    std::size_t used_ = 0;
    std::size_t cap_ = 0;
    std::uint64_t slabAllocs_ = 0;
    std::uint64_t slabReuses_ = 0;
};

} // namespace swsm

#endif // SWSM_PROTO_PAGE_BUFFER_POOL_HH
