#include "app_util.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "sim/log.hh"

namespace swsm
{

void
fftInPlace(Complex *a, std::uint64_t n, int sign)
{
    if (n == 0 || (n & (n - 1)) != 0)
        SWSM_PANIC("fftInPlace needs a power-of-two size");
    // Bit-reversal permutation.
    for (std::uint64_t i = 1, j = 0; i < n; ++i) {
        std::uint64_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (std::uint64_t len = 2; len <= n; len <<= 1) {
        const double ang = sign * 2.0 * M_PI / static_cast<double>(len);
        const Complex wl{std::cos(ang), std::sin(ang)};
        for (std::uint64_t i = 0; i < n; i += len) {
            Complex w{1.0, 0.0};
            for (std::uint64_t k = 0; k < len / 2; ++k) {
                const Complex u = a[i + k];
                const Complex v = a[i + k + len / 2] * w;
                a[i + k] = u + v;
                a[i + k + len / 2] = u - v;
                w = w * wl;
            }
        }
    }
}

void
radixSort(std::vector<std::uint32_t> &keys)
{
    std::vector<std::uint32_t> scratch(keys.size());
    for (unsigned shift = 0; shift < 32; shift += 8) {
        std::array<std::size_t, 256> start{};
        for (const std::uint32_t k : keys)
            ++start[(k >> shift) & 0xff];
        std::size_t sum = 0;
        for (std::size_t &s : start)
            sum += std::exchange(s, sum);
        for (const std::uint32_t k : keys)
            scratch[start[(k >> shift) & 0xff]++] = k;
        keys.swap(scratch);
    }
}

double
relError(double a, double b)
{
    return std::abs(a - b) / std::max(1.0, std::abs(b));
}

Range
blockRange(std::uint64_t n, int parts, int p)
{
    const std::uint64_t per = n / parts;
    const std::uint64_t rem = n % parts;
    const std::uint64_t up = static_cast<std::uint64_t>(p);
    const std::uint64_t begin = up * per + std::min<std::uint64_t>(up, rem);
    const std::uint64_t extra = up < rem ? 1 : 0;
    return Range{begin, begin + per + extra};
}

} // namespace swsm
