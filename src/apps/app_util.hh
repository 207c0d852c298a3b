/**
 * @file
 * Shared helpers for the application suite: complex arithmetic, FFT and
 * sort reference kernels, partitioning math, cost models, and the
 * untimed bulk transfers that build and check shared arrays.
 *
 * Compute-cost constants approximate 1-IPC instruction counts of the
 * corresponding inner loops; they scale all applications uniformly and
 * only the ratios between computation and communication matter for the
 * study's results.
 */

#ifndef SWSM_APPS_APP_UTIL_HH
#define SWSM_APPS_APP_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "machine/shared_array.hh"
#include "sim/types.hh"

namespace swsm
{

/** Shared-memory-friendly complex number (16-byte slot). */
struct Complex
{
    double re = 0.0;
    double im = 0.0;

    friend Complex
    operator+(Complex a, Complex b)
    {
        return {a.re + b.re, a.im + b.im};
    }
    friend Complex
    operator-(Complex a, Complex b)
    {
        return {a.re - b.re, a.im - b.im};
    }
    friend Complex
    operator*(Complex a, Complex b)
    {
        return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    }
};

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t v)
{
    unsigned l = 0;
    while ((1ULL << l) < v)
        ++l;
    return l;
}

/**
 * In-place iterative radix-2 FFT (forward for sign=-1, inverse for
 * sign=+1, unnormalized). @p n must be a power of two.
 */
void fftInPlace(Complex *a, std::uint64_t n, int sign);

/**
 * Sort @p keys ascending: an LSD radix sort, four passes of 8-bit
 * digits through one scratch vector, O(n). Radix's reference.
 */
void radixSort(std::vector<std::uint32_t> &keys);

/** Approximate 1-IPC cycles of an n-point radix-2 FFT. */
inline Cycles
fftCycles(std::uint64_t n)
{
    return 5 * n * log2Exact(n);
}

/** Relative error |a-b| / max(1, |b|). */
double relError(double a, double b);

/** Contiguous [begin, end) range of item @p p out of @p parts over n. */
struct Range
{
    std::uint64_t begin;
    std::uint64_t end;

    std::uint64_t size() const { return end - begin; }
};

/** Block partition of n items over parts workers. */
Range blockRange(std::uint64_t n, int parts, int p);

/** Elements of @p T per untimed transfer of a whole-array walk. */
template <typename T>
constexpr std::uint64_t chunkElements =
    std::max<std::uint64_t>(1, (64 << 10) / sizeof(T));

/** Untimed initialization of every element of @p arr to @p v. */
template <typename T>
void
initFill(Cluster &cluster, const SharedArray<T> &arr, const T &v)
{
    const std::uint64_t n = arr.size();
    const std::vector<T> buf(std::min(n, chunkElements<T>), v);
    for (std::uint64_t first = 0; first < n; first += buf.size())
        arr.initRange(cluster, first, std::min(n - first, buf.size()),
                      buf.data());
}

/**
 * Read elements [0, n) of @p arr in 64 KiB chunks through one reused
 * buffer and hand each to @p ok(i, value) in index order.
 * @return false at the first element @p ok rejects, else true
 */
template <typename T, typename Ok>
bool
checkElements(Cluster &cluster, const SharedArray<T> &arr, std::uint64_t n,
              Ok &&ok)
{
    std::vector<T> buf(std::min(n, chunkElements<T>));
    for (std::uint64_t first = 0; first < n; first += buf.size()) {
        const std::uint64_t len = std::min(n - first, buf.size());
        arr.peekRange(cluster, first, len, buf.data());
        for (std::uint64_t k = 0; k < len; ++k) {
            if (!ok(first + k, buf[k]))
                return false;
        }
    }
    return true;
}

} // namespace swsm

#endif // SWSM_APPS_APP_UTIL_HH
