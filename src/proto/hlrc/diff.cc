#include "diff.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/types.hh"

namespace swsm::hlrcdiff
{

std::uint32_t
chunkShift(std::uint32_t page_bytes)
{
    // 64 chunks per page (one bitmap word), but never smaller than
    // one 8-byte compare unit.
    const auto page_shift =
        static_cast<std::uint32_t>(std::countr_zero(page_bytes));
    return page_shift > 9 ? page_shift - 6 : 3;
}

void
diffWords(const std::uint8_t *cur, const std::uint8_t *twin,
          std::uint32_t bytes, std::uint32_t word0, DiffWords &out)
{
    for (std::uint32_t off = 0; off < bytes; off += wordBytes) {
        std::uint32_t a, b;
        std::memcpy(&a, cur + off, wordBytes);
        std::memcpy(&b, twin + off, wordBytes);
        if (a != b)
            out.emplace_back(word0 + off / wordBytes, a);
    }
}

void
applyWords(std::uint8_t *base, const DiffWords &words)
{
    for (const auto &[w, value] : words)
        std::memcpy(base + std::size_t{w} * wordBytes, &value, wordBytes);
}

void
scanFull(const std::uint8_t *cur, const std::uint8_t *twin,
         std::uint32_t page_bytes, DiffWords &out)
{
    diffWords(cur, twin, page_bytes, 0, out);
}

void
scanChunks(const std::uint8_t *cur, const std::uint8_t *twin,
           std::uint32_t page_bytes, std::uint32_t chunk_shift,
           std::uint64_t dirty_chunks, DiffWords &out)
{
    // Merge adjacent dirty chunks into maximal runs before scanning:
    // sequential writers dirty long contiguous spans, and one loop
    // over a run beats a call per chunk.
    std::uint64_t mask = dirty_chunks;
    while (mask) {
        const auto c = static_cast<std::uint32_t>(std::countr_zero(mask));
        const std::uint64_t from_c = mask >> c;
        const auto len = static_cast<std::uint32_t>(
            std::countr_one(from_c));
        mask = len >= 64
                   ? 0
                   : mask & ~(((std::uint64_t{1} << len) - 1) << c);
        const std::uint32_t begin = c << chunk_shift;
        if (begin >= page_bytes)
            break;
        const std::uint32_t end = std::min(
            begin + (len << chunk_shift), page_bytes);
        diffWords(cur + begin, twin + begin, end - begin,
                  begin / wordBytes, out);
    }
}

bool
cleanChunksMatch(const std::uint8_t *cur, const std::uint8_t *twin,
                 std::uint32_t page_bytes, std::uint32_t chunk_shift,
                 std::uint64_t dirty_chunks)
{
    const std::uint32_t chunk_bytes = 1u << chunk_shift;
    std::uint32_t run_begin = 0;
    bool in_run = false;
    for (std::uint32_t begin = 0, c = 0; begin < page_bytes;
         begin += chunk_bytes, ++c) {
        const bool clean = !(dirty_chunks & (std::uint64_t{1} << c));
        if (clean && !in_run) {
            run_begin = begin;
            in_run = true;
        } else if (!clean && in_run) {
            if (std::memcmp(cur + run_begin, twin + run_begin,
                            begin - run_begin) != 0)
                return false;
            in_run = false;
        }
    }
    if (in_run) {
        return std::memcmp(cur + run_begin, twin + run_begin,
                           page_bytes - run_begin) == 0;
    }
    return true;
}

} // namespace swsm::hlrcdiff
