#include "ocean.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{
/** 1-IPC cycles per relaxed point (the real Ocean's update is a
 *  multi-term stencil with several coefficient arrays). */
constexpr Cycles cellUpdateCost = 25;
} // namespace

OceanWorkload::OceanWorkload(SizeClass size, bool rowwise)
    : rowwise(rowwise)
{
    switch (size) {
      case SizeClass::Tiny:
        n = 32;
        sweeps = 2;
        break;
      case SizeClass::Small:
        n = 512; // the paper's 514x514 grid
        sweeps = 3;
        break;
      case SizeClass::Medium:
        n = 1024;
        sweeps = 3;
        break;
      case SizeClass::Paper:
        n = 512; // the paper's 514x514 grid
        sweeps = 3;
        break;
    }
}

OceanWorkload::Part
OceanWorkload::partOf(int p, int np) const
{
    if (rowwise) {
        const Range rows = blockRange(n, np, p);
        return Part{rows.begin + 1, rows.end + 1, 1, n + 1};
    }
    const int pr = p / gridCols;
    const int pc = p % gridCols;
    const Range rows = blockRange(n, gridRows, pr);
    const Range cols = blockRange(n, gridCols, pc);
    return Part{rows.begin + 1, rows.end + 1, cols.begin + 1,
                cols.end + 1};
}

GlobalAddr
OceanWorkload::cellAddr(std::uint64_t r, std::uint64_t c) const
{
    return grid.addr(layout[r * (n + 2) + c]);
}

void
OceanWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    if (rowwise) {
        gridRows = np;
        gridCols = 1;
    } else {
        gridRows = 1;
        for (int r = static_cast<int>(std::sqrt(np)); r >= 1; --r) {
            if (np % r == 0) {
                gridRows = r;
                break;
            }
        }
        gridCols = np / gridRows;
    }

    const std::uint64_t cells = (n + 2) * (n + 2);
    grid = SharedArray<double>(cluster, cells, cluster.params().pageBytes);
    bar = cluster.allocBarrier();

    // Contiguous-by-owner layout: every cell (boundary ring included,
    // via clamping) belongs to one partition; a partition's cells are
    // row-major and homed at the owner. One pass finds each cell's
    // owner, then a counting sort over partitions numbers the cells.
    std::vector<Part> parts(np);
    for (int p = 0; p < np; ++p)
        parts[p] = partOf(p, np);
    auto owner_of = [&](std::uint64_t r, std::uint64_t c) {
        const std::uint64_t rr = std::min(std::max<std::uint64_t>(r, 1), n);
        const std::uint64_t cc = std::min(std::max<std::uint64_t>(c, 1), n);
        for (int p = 0; p < np; ++p) {
            const Part &pt = parts[p];
            if (rr >= pt.r0 && rr < pt.r1 && cc >= pt.c0 && cc < pt.c1)
                return p;
        }
        SWSM_PANIC("ocean cell with no owner");
    };
    std::vector<int> owner(cells);
    std::vector<std::uint32_t> first(np + 1, 0);
    for (std::uint64_t r = 0; r < n + 2; ++r) {
        for (std::uint64_t c = 0; c < n + 2; ++c) {
            const int p = owner_of(r, c);
            owner[r * (n + 2) + c] = p;
            ++first[p + 1];
        }
    }
    for (int p = 0; p < np; ++p)
        first[p + 1] += first[p];
    std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
    layout.resize(cells);
    for (std::uint64_t i = 0; i < cells; ++i)
        layout[i] = next[owner[i]]++;
    for (int p = 0; p < np; ++p) {
        if (first[p + 1] > first[p]) {
            cluster.space().setRangeHome(
                grid.addr(first[p]),
                (first[p + 1] - first[p]) * sizeof(double), p);
        }
    }

    // Smooth-ish random initial interior, fixed boundary.
    Rng rng(99);
    initial.assign(cells, 0.0);
    for (std::uint64_t r = 0; r < n + 2; ++r) {
        for (std::uint64_t c = 0; c < n + 2; ++c) {
            double v;
            if (r == 0 || c == 0 || r == n + 1 || c == n + 1) {
                v = std::sin(0.1 * static_cast<double>(r + c));
            } else {
                v = rng.nextDouble();
            }
            initial[r * (n + 2) + c] = v;
            grid.init(cluster, layout[r * (n + 2) + c], v);
        }
    }
}

void
OceanWorkload::relaxColor(Thread &t, const Part &part, int color)
{
    const std::uint64_t width = part.c1 - part.c0;
    std::vector<double> up(width), cur(width), down(width);
    for (std::uint64_t r = part.r0; r < part.r1; ++r) {
        // Contiguous row segments (the one above and below may be a
        // neighbour's boundary row — a coarse-grained remote read).
        t.readBytes(cellAddr(r - 1, part.c0), up.data(),
                    width * sizeof(double));
        t.readBytes(cellAddr(r, part.c0), cur.data(),
                    width * sizeof(double));
        t.readBytes(cellAddr(r + 1, part.c0), down.data(),
                    width * sizeof(double));
        // Left/right halo cells: single-word (fine-grained) remote
        // reads in the square-partition version.
        const double left_edge = t.get<double>(cellAddr(r, part.c0 - 1));
        const double right_edge = t.get<double>(cellAddr(r, part.c1));

        std::uint64_t updated = 0;
        for (std::uint64_t c = part.c0; c < part.c1; ++c) {
            if (((r + c) & 1u) != static_cast<std::uint64_t>(color))
                continue;
            const std::uint64_t i = c - part.c0;
            const double left = i == 0 ? left_edge : cur[i - 1];
            const double right =
                i + 1 == width ? right_edge : cur[i + 1];
            cur[i] = (1.0 - omega) * cur[i] +
                     omega * 0.25 * (up[i] + down[i] + left + right);
            ++updated;
        }
        t.compute(cellUpdateCost * updated);
        t.writeBytes(cellAddr(r, part.c0), cur.data(),
                     width * sizeof(double));
    }
}

void
OceanWorkload::body(Thread &t)
{
    const Part part = partOf(t.id(), t.nprocs());
    for (int s = 0; s < sweeps; ++s) {
        relaxColor(t, part, 0);
        t.barrier(bar);
        relaxColor(t, part, 1);
        t.barrier(bar);
    }
}

bool
OceanWorkload::verify(Cluster &cluster)
{
    // Native reference: identical red-black sweeps (deterministic).
    std::vector<double> ref = initial;
    const std::uint64_t w = n + 2;
    for (int s = 0; s < sweeps; ++s) {
        for (int color = 0; color < 2; ++color) {
            std::vector<double> prev = ref;
            for (std::uint64_t r = 1; r <= n; ++r) {
                for (std::uint64_t c = 1; c <= n; ++c) {
                    if (((r + c) & 1u) !=
                        static_cast<std::uint64_t>(color))
                        continue;
                    ref[r * w + c] = (1.0 - omega) * prev[r * w + c] +
                        omega * 0.25 *
                            (prev[(r - 1) * w + c] +
                             prev[(r + 1) * w + c] + prev[r * w + c - 1] +
                             prev[r * w + c + 1]);
                }
            }
        }
    }

    for (std::uint64_t r = 0; r < n + 2; ++r) {
        for (std::uint64_t c = 0; c < n + 2; ++c) {
            const double got = grid.peek(cluster, layout[r * w + c]);
            if (std::abs(got - ref[r * w + c]) > 1e-9) {
                SWSM_WARN("ocean mismatch at (%llu,%llu): %g vs %g",
                          static_cast<unsigned long long>(r),
                          static_cast<unsigned long long>(c), got,
                          ref[r * w + c]);
                return false;
            }
        }
    }
    return true;
}

} // namespace swsm
