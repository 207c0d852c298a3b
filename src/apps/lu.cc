#include "lu.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{

/** In-place LU of a B x B block (no pivoting, unit lower diagonal). */
void
factorBlock(double *a, std::uint64_t b)
{
    for (std::uint64_t k = 0; k < b; ++k) {
        for (std::uint64_t i = k + 1; i < b; ++i) {
            a[i * b + k] /= a[k * b + k];
            for (std::uint64_t j = k + 1; j < b; ++j)
                a[i * b + j] -= a[i * b + k] * a[k * b + j];
        }
    }
}

/** X := X * U^-1 for the upper triangle (with diagonal) of diag. */
void
solveRight(double *x, const double *diag, std::uint64_t b)
{
    for (std::uint64_t r = 0; r < b; ++r) {
        for (std::uint64_t j = 0; j < b; ++j) {
            double v = x[r * b + j];
            for (std::uint64_t t = 0; t < j; ++t)
                v -= x[r * b + t] * diag[t * b + j];
            x[r * b + j] = v / diag[j * b + j];
        }
    }
}

/** X := L^-1 * X for the unit lower triangle of diag. */
void
solveLeft(double *x, const double *diag, std::uint64_t b)
{
    for (std::uint64_t i = 0; i < b; ++i) {
        for (std::uint64_t t = 0; t < i; ++t) {
            const double l = diag[i * b + t];
            for (std::uint64_t j = 0; j < b; ++j)
                x[i * b + j] -= l * x[t * b + j];
        }
    }
}

/** C -= A * B (all B x B). */
void
gemmSub(double *c, const double *a, const double *b, std::uint64_t bs)
{
    for (std::uint64_t i = 0; i < bs; ++i) {
        for (std::uint64_t k = 0; k < bs; ++k) {
            const double aik = a[i * bs + k];
            for (std::uint64_t j = 0; j < bs; ++j)
                c[i * bs + j] -= aik * b[k * bs + j];
        }
    }
}

} // namespace

LuWorkload::LuWorkload(SizeClass size)
{
    switch (size) {
      case SizeClass::Tiny:
        n = 64;
        break;
      case SizeClass::Small:
        n = 384;
        break;
      case SizeClass::Medium:
      case SizeClass::Paper:
        n = 512; // the paper's size
        break;
    }
    nb = n / bs;
}

int
LuWorkload::owner(std::uint64_t bi, std::uint64_t bj) const
{
    return static_cast<int>((bi % gridRows) * gridCols + (bj % gridCols));
}

GlobalAddr
LuWorkload::blockAddr(std::uint64_t bi, std::uint64_t bj) const
{
    return blocks.addr(blockSlot[bi * nb + bj] * bs * bs);
}

void
LuWorkload::readBlock(Thread &t, std::uint64_t bi, std::uint64_t bj,
                      double *buf) const
{
    t.readBytes(blockAddr(bi, bj), buf, bs * bs * sizeof(double));
}

void
LuWorkload::writeBlock(Thread &t, std::uint64_t bi, std::uint64_t bj,
                       const double *buf) const
{
    t.writeBytes(blockAddr(bi, bj), buf, bs * bs * sizeof(double));
}

void
LuWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    gridRows = 1;
    for (int r = static_cast<int>(std::sqrt(np)); r >= 1; --r) {
        if (np % r == 0) {
            gridRows = r;
            break;
        }
    }
    gridCols = np / gridRows;

    blocks = SharedArray<double>(cluster, n * n,
                                 cluster.params().pageBytes);
    bar = cluster.allocBarrier();

    // Group each owner's blocks contiguously (the "contiguous blocks"
    // allocation) and home the group at the owner.
    blockSlot.assign(nb * nb, 0);
    std::uint64_t slot = 0;
    for (int p = 0; p < np; ++p) {
        const std::uint64_t first = slot;
        for (std::uint64_t bi = 0; bi < nb; ++bi) {
            for (std::uint64_t bj = 0; bj < nb; ++bj) {
                if (owner(bi, bj) == p)
                    blockSlot[bi * nb + bj] = slot++;
            }
        }
        if (slot > first) {
            cluster.space().setRangeHome(
                blocks.addr(first * bs * bs),
                (slot - first) * bs * bs * sizeof(double), p);
        }
    }

    // Diagonally dominant input: stable without pivoting.
    Rng rng(1234);
    original.resize(n * n);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            double v = rng.nextDouble() * 2.0 - 1.0;
            if (i == j)
                v += static_cast<double>(n);
            original[i * n + j] = v;
        }
    }
    // A block's rows are contiguous in both layouts.
    for (std::uint64_t bi = 0; bi < nb; ++bi) {
        for (std::uint64_t bj = 0; bj < nb; ++bj) {
            for (std::uint64_t r = 0; r < bs; ++r) {
                cluster.initWrite(
                    blockAddr(bi, bj) + r * bs * sizeof(double),
                    &original[(bi * bs + r) * n + bj * bs],
                    bs * sizeof(double));
            }
        }
    }
}

void
LuWorkload::body(Thread &t)
{
    const int me = t.id();
    const std::uint64_t bb = bs * bs;
    std::vector<double> diag(bb), mine(bb), left(bb), up(bb);

    for (std::uint64_t k = 0; k < nb; ++k) {
        // 1. Factor the diagonal block.
        if (owner(k, k) == me) {
            readBlock(t, k, k, diag.data());
            factorBlock(diag.data(), bs);
            t.compute(2 * bs * bs * bs / 3);
            writeBlock(t, k, k, diag.data());
        }
        t.barrier(bar);

        // 2. Perimeter: triangular solves against the diagonal block.
        bool have_diag = false;
        for (std::uint64_t bi = k + 1; bi < nb; ++bi) {
            if (owner(bi, k) != me)
                continue;
            if (!have_diag) {
                readBlock(t, k, k, diag.data());
                have_diag = true;
            }
            readBlock(t, bi, k, mine.data());
            solveRight(mine.data(), diag.data(), bs);
            t.compute(bs * bs * bs);
            writeBlock(t, bi, k, mine.data());
        }
        for (std::uint64_t bj = k + 1; bj < nb; ++bj) {
            if (owner(k, bj) != me)
                continue;
            if (!have_diag) {
                readBlock(t, k, k, diag.data());
                have_diag = true;
            }
            readBlock(t, k, bj, mine.data());
            solveLeft(mine.data(), diag.data(), bs);
            t.compute(bs * bs * bs);
            writeBlock(t, k, bj, mine.data());
        }
        t.barrier(bar);

        // 3. Interior: rank-B update from the pivot row and column.
        for (std::uint64_t bi = k + 1; bi < nb; ++bi) {
            bool have_left = false;
            for (std::uint64_t bj = k + 1; bj < nb; ++bj) {
                if (owner(bi, bj) != me)
                    continue;
                if (!have_left) {
                    readBlock(t, bi, k, left.data());
                    have_left = true;
                }
                readBlock(t, k, bj, up.data());
                readBlock(t, bi, bj, mine.data());
                gemmSub(mine.data(), left.data(), up.data(), bs);
                t.compute(2 * bs * bs * bs);
                writeBlock(t, bi, bj, mine.data());
            }
        }
        t.barrier(bar);
    }
}

bool
LuWorkload::verify(Cluster &cluster)
{
    // Gather the factored matrix back into dense layout.
    std::vector<double> lu(n * n);
    std::vector<double> buf(bs * bs);
    for (std::uint64_t bi = 0; bi < nb; ++bi) {
        for (std::uint64_t bj = 0; bj < nb; ++bj) {
            cluster.debugRead(blockAddr(bi, bj), buf.data(),
                              bs * bs * sizeof(double));
            for (std::uint64_t r = 0; r < bs; ++r)
                for (std::uint64_t c = 0; c < bs; ++c)
                    lu[(bi * bs + r) * n + bj * bs + c] =
                        buf[r * bs + c];
        }
    }

    // Check A == L * U row by row.
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            double v = 0.0;
            const std::uint64_t lim = std::min(i, j);
            for (std::uint64_t k = 0; k <= lim; ++k) {
                const double l = k == i ? 1.0 : lu[i * n + k];
                if (k <= j)
                    v += l * lu[k * n + j];
            }
            const double a = original[i * n + j];
            if (std::abs(v - a) > 1e-6 * (1.0 + std::abs(a))) {
                SWSM_WARN("lu mismatch at (%llu,%llu): %g vs %g",
                          static_cast<unsigned long long>(i),
                          static_cast<unsigned long long>(j), v, a);
                return false;
            }
        }
    }
    return true;
}

} // namespace swsm
