#include "diff.hh"

#include <cstring>

#include "sim/types.hh"

namespace swsm::hlrcdiff
{

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

} // namespace swsm::hlrcdiff
