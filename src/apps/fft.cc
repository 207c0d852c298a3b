#include "fft.hh"

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

FftWorkload::FftWorkload(SizeClass size)
{
    switch (size) {
      case SizeClass::Tiny:
        m = 32; // 1 K points
        break;
      case SizeClass::Small:
        // 256 K points: keeps the transpose's page-fetch amplification
        // (page bytes / contiguous strip bytes) near the paper's
        // 1M-point geometry. See DESIGN.md §5.
        m = 512;
        break;
      case SizeClass::Medium:
      case SizeClass::Paper:
        m = 1024; // the paper's 1 M points
        break;
    }
}

void
FftWorkload::setup(Cluster &cluster)
{
    const std::uint64_t n = points();
    const std::uint32_t page = cluster.params().pageBytes;
    x = SharedArray<Complex>(cluster, n, page);
    trans = SharedArray<Complex>(cluster, n, page);
    bar = cluster.allocBarrier();

    // Row blocks live at their owners (the SPLASH-2 data distribution).
    const int np = cluster.numProcs();
    for (int p = 0; p < np; ++p) {
        const Range rows = blockRange(m, np, p);
        const std::uint64_t bytes = rows.size() * m * x.slotBytes();
        cluster.space().setRangeHome(x.addr(rows.begin * m), bytes, p);
        cluster.space().setRangeHome(trans.addr(rows.begin * m), bytes, p);
    }

    const std::vector<Complex> in = inputPoints();
    x.initRange(cluster, 0, n, in.data());
}

std::vector<Complex>
FftWorkload::inputPoints() const
{
    Rng rng(42);
    std::vector<Complex> in(points());
    for (Complex &c : in) {
        c.re = rng.nextDouble() * 2.0 - 1.0;
        c.im = rng.nextDouble() * 2.0 - 1.0;
    }
    return in;
}

void
FftWorkload::transpose(Thread &t, const SharedArray<Complex> &src,
                       const SharedArray<Complex> &dst)
{
    const Range rows = blockRange(m, t.nprocs(), t.id());
    if (rows.size() == 0)
        return;
    std::vector<Complex> buf(rows.size());
    // For every source row c, read the contiguous segment that lands in
    // our destination rows, then scatter it into column c.
    for (std::uint64_t c = 0; c < m; ++c) {
        src.read(t, c * m + rows.begin, rows.size(), buf.data());
        for (std::uint64_t r = rows.begin; r < rows.end; ++r)
            dst.put(t, r * m + c, buf[r - rows.begin]);
        t.compute(2 * rows.size());
    }
}

void
FftWorkload::rowFfts(Thread &t, const SharedArray<Complex> &arr)
{
    const Range rows = blockRange(m, t.nprocs(), t.id());
    std::vector<Complex> row(m);
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        arr.read(t, r * m, m, row.data());
        fftInPlace(row.data(), m, -1);
        t.compute(fftCycles(m));
        arr.write(t, r * m, m, row.data());
    }
}

void
FftWorkload::twiddle(Thread &t, const SharedArray<Complex> &arr)
{
    const Range rows = blockRange(m, t.nprocs(), t.id());
    const double n = static_cast<double>(points());
    std::vector<Complex> row(m);
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        arr.read(t, r * m, m, row.data());
        for (std::uint64_t c = 0; c < m; ++c) {
            const double ang = -2.0 * M_PI *
                static_cast<double>(r) * static_cast<double>(c) / n;
            row[c] = row[c] * Complex{std::cos(ang), std::sin(ang)};
        }
        t.compute(10 * m);
        arr.write(t, r * m, m, row.data());
    }
}

void
FftWorkload::body(Thread &t)
{
    transpose(t, x, trans); // 1: trans = x^T
    t.barrier(bar);
    rowFfts(t, trans);      // 2: m-point FFTs over trans rows
    twiddle(t, trans);      // 3: twiddle scale (local rows)
    t.barrier(bar);
    transpose(t, trans, x); // 4: x = trans^T
    t.barrier(bar);
    rowFfts(t, x);          // 5: m-point FFTs over x rows
    t.barrier(bar);
    transpose(t, x, trans); // 6: ordered result in trans
    t.barrier(bar);
}

bool
FftWorkload::verify(Cluster &cluster)
{
    std::vector<Complex> ref = inputPoints();
    fftInPlace(ref.data(), ref.size(), -1);
    return checkElements(
        cluster, trans, points(), [&](std::uint64_t i, const Complex &got) {
            if (std::abs(got.re - ref[i].re) >
                    1e-6 * (1.0 + std::abs(ref[i].re)) ||
                std::abs(got.im - ref[i].im) >
                    1e-6 * (1.0 + std::abs(ref[i].im))) {
                SWSM_WARN("fft mismatch at %llu: (%g,%g) vs (%g,%g)",
                          static_cast<unsigned long long>(i), got.re,
                          got.im, ref[i].re, ref[i].im);
                return false;
            }
            return true;
        });
}

} // namespace swsm
