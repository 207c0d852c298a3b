/**
 * @file
 * Twin-vs-data diff scan and diff apply for HLRC.
 *
 * One portable implementation of each host operation: diffWords and
 * applyWords are plain word loops, and the clean-chunk cross-check is
 * a memcmp. Two scans share diffWords:
 *
 *  - scanFull: a dense sweep of the whole page, used when the fast
 *    path is disabled (SWSM_FASTPATH=0);
 *  - scanChunks: visits only the chunks the write path marked in the
 *    page's dirty-chunk bitmap (merging adjacent dirty chunks into
 *    maximal runs), so clean regions of a mostly-clean page are never
 *    touched.
 *
 * Both produce the identical word list (ascending offsets), so the
 * diff message bytes, apply order and every simulated charge are the
 * same; only host time differs. The simulated cost is Table 3's
 * per-word charge either way. bench/micro_hotpath times the two scans
 * head to head.
 */

#ifndef SWSM_PROTO_HLRC_DIFF_HH
#define SWSM_PROTO_HLRC_DIFF_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace swsm::hlrcdiff
{

/** (word index, new value) pairs, ascending: the HLRC diff format. */
using DiffWords = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/** log2 of the dirty-chunk size for @p page_bytes (<= 64 chunks). */
std::uint32_t chunkShift(std::uint32_t page_bytes);

/**
 * Append (word0 + i, value) for every differing 4-byte word i of
 * [cur, cur+bytes) vs [twin, twin+bytes), in ascending order.
 * @p bytes must be a multiple of 4.
 */
void diffWords(const std::uint8_t *cur, const std::uint8_t *twin,
               std::uint32_t bytes, std::uint32_t word0, DiffWords &out);

/** Write each (word index, value) of @p words at @p base + 4 * index. */
void applyWords(std::uint8_t *base, const DiffWords &words);

/** Full word-wise scan of @p page_bytes; appends (word, value). */
void scanFull(const std::uint8_t *cur, const std::uint8_t *twin,
              std::uint32_t page_bytes, DiffWords &out);

/**
 * Chunk-skipping scan restricted to the chunks set in
 * @p dirty_chunks; appends (word, value) in ascending word order.
 * @pre every word differing from the twin lies in a marked chunk
 */
void scanChunks(const std::uint8_t *cur, const std::uint8_t *twin,
                std::uint32_t page_bytes, std::uint32_t chunk_shift,
                std::uint64_t dirty_chunks, DiffWords &out);

/**
 * True if the chunks NOT set in @p dirty_chunks are byte-identical to
 * the twin (the precondition scanChunks relies on; checked under
 * SWSM_CHECK).
 */
bool cleanChunksMatch(const std::uint8_t *cur, const std::uint8_t *twin,
                      std::uint32_t page_bytes, std::uint32_t chunk_shift,
                      std::uint64_t dirty_chunks);

} // namespace swsm::hlrcdiff

#endif // SWSM_PROTO_HLRC_DIFF_HH
