/**
 * @file
 * Twin-vs-data diff scan and diff apply for HLRC.
 *
 * One portable implementation of each host operation, both plain
 * word loops. HLRC diffs a page with one dense diffWords pass over
 * the whole page against its twin, as the paper's Table 3 charges it
 * (per word of the page), so the host work and the mem.simd_*
 * telemetry are the same with the fast path on or off.
 * bench/micro_hotpath times the full-page scan.
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

/**
 * Append (word0 + i, value) for every differing 4-byte word i of
 * [cur, cur+bytes) vs [twin, twin+bytes), in ascending order.
 * @p bytes must be a multiple of 4.
 */
void diffWords(const std::uint8_t *cur, const std::uint8_t *twin,
               std::uint32_t bytes, std::uint32_t word0, DiffWords &out);

/** Write each (word index, value) of @p words at @p base + 4 * index. */
void applyWords(std::uint8_t *base, const DiffWords &words);

} // namespace swsm::hlrcdiff

#endif // SWSM_PROTO_HLRC_DIFF_HH
