#include "water.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{
constexpr double timeStep = 0.001;
constexpr double softening = 0.5;
constexpr Cycles pairCost = 800;   // the water potential is expensive
constexpr Cycles integrateCost = 60;
} // namespace

WaterWorkload::WaterWorkload(SizeClass size, bool spatial)
    : spatial(spatial)
{
    switch (size) {
      case SizeClass::Tiny:
        n = 64;
        steps = 2;
        break;
      case SizeClass::Small:
        n = 512; // the paper's molecule count
        steps = 2;
        break;
      case SizeClass::Medium:
        n = 1000;
        steps = 2;
        break;
      case SizeClass::Paper:
        n = 512; // the paper's molecule count
        steps = 2;
        break;
    }
    boxSize = std::cbrt(static_cast<double>(n)) * 1.2;
    cellsPerDim = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::cbrt(n / 3.0)));
    cutoff = boxSize / static_cast<double>(cellsPerDim);
    maxPerCell = std::max<std::uint64_t>(
        16, 8 * n / (cellsPerDim * cellsPerDim * cellsPerDim));
}

WaterWorkload::Vec3
WaterWorkload::pairForce(const Vec3 &pi, const Vec3 &pj)
{
    const double dx = pi.x - pj.x;
    const double dy = pi.y - pj.y;
    const double dz = pi.z - pj.z;
    const double r2 = dx * dx + dy * dy + dz * dz + softening;
    const double inv2 = 1.0 / r2;
    const double inv6 = inv2 * inv2 * inv2;
    // Lennard-Jones: F = 24 (2 r^-12 - r^-6) / r^2 * dr
    const double f = 24.0 * (2.0 * inv6 * inv6 - inv6) * inv2;
    return Vec3{f * dx, f * dy, f * dz};
}

WaterWorkload::Vec3
WaterWorkload::readVec(Thread &t, std::uint64_t i, std::uint64_t off) const
{
    const std::uint64_t base = i * molStride + off;
    return Vec3{mol.get(t, base), mol.get(t, base + 1),
                mol.get(t, base + 2)};
}

void
WaterWorkload::writeVec(Thread &t, std::uint64_t i, std::uint64_t off,
                        const Vec3 &v) const
{
    const std::uint64_t base = i * molStride + off;
    mol.put(t, base, v.x);
    mol.put(t, base + 1, v.y);
    mol.put(t, base + 2, v.z);
}

void
WaterWorkload::addVec(Thread &t, std::uint64_t i, std::uint64_t off,
                      const Vec3 &v) const
{
    const Vec3 old = readVec(t, i, off);
    writeVec(t, i, off, Vec3{old.x + v.x, old.y + v.y, old.z + v.z});
}

std::uint64_t
WaterWorkload::cellOf(const Vec3 &p) const
{
    auto clamp_dim = [this](double x) {
        const double scaled = x / cutoff;
        const auto c = static_cast<std::int64_t>(std::floor(scaled));
        return static_cast<std::uint64_t>(std::min<std::int64_t>(
            std::max<std::int64_t>(c, 0),
            static_cast<std::int64_t>(cellsPerDim) - 1));
    };
    return (clamp_dim(p.x) * cellsPerDim + clamp_dim(p.y)) * cellsPerDim +
           clamp_dim(p.z);
}

void
WaterWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    const std::uint32_t page = cluster.params().pageBytes;
    mol = SharedArray<double>(cluster, n * molStride, page);
    bar = cluster.allocBarrier();

    for (int p = 0; p < np; ++p) {
        const Range blk = blockRange(n, np, p);
        cluster.space().setRangeHome(
            mol.addr(blk.begin * molStride),
            blk.size() * molStride * sizeof(double), p);
    }

    // Jittered lattice positions, small random velocities.
    Rng rng(7);
    const auto side = static_cast<std::uint64_t>(
        std::ceil(std::cbrt(static_cast<double>(n))));
    const double spacing = boxSize / static_cast<double>(side);
    initPos.resize(3 * n);
    initVel.resize(3 * n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t ix = i % side;
        const std::uint64_t iy = (i / side) % side;
        const std::uint64_t iz = i / (side * side);
        initPos[3 * i] = (ix + 0.5) * spacing +
            (rng.nextDouble() - 0.5) * 0.2;
        initPos[3 * i + 1] = (iy + 0.5) * spacing +
            (rng.nextDouble() - 0.5) * 0.2;
        initPos[3 * i + 2] = (iz + 0.5) * spacing +
            (rng.nextDouble() - 0.5) * 0.2;
        for (int d = 0; d < 3; ++d)
            initVel[3 * i + d] = (rng.nextDouble() - 0.5) * 0.01;
        // Position, velocity and a zero force are one run of fields.
        static_assert(velOff == posOff + 3 && forceOff == velOff + 3);
        double fields[9] = {};
        std::copy_n(&initPos[3 * i], 3, fields);
        std::copy_n(&initVel[3 * i], 3, fields + 3);
        mol.initRange(cluster, i * molStride + posOff, 9, fields);
    }

    if (spatial) {
        const std::uint64_t cells =
            cellsPerDim * cellsPerDim * cellsPerDim;
        cellCount = SharedArray<std::uint32_t>(cluster, cells, page);
        cellList =
            SharedArray<std::uint32_t>(cluster, cells * maxPerCell, page);
        cellLocks.resize(cells);
        for (auto &l : cellLocks)
            l = cluster.allocLock();
        // Initial cell membership.
        std::vector<std::vector<std::uint32_t>> members(cells);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Vec3 p{initPos[3 * i], initPos[3 * i + 1],
                         initPos[3 * i + 2]};
            members[cellOf(p)].push_back(static_cast<std::uint32_t>(i));
        }
        std::vector<std::uint32_t> counts(cells);
        for (std::uint64_t c = 0; c < cells; ++c) {
            if (members[c].size() > maxPerCell)
                SWSM_FATAL("water cell overflow at setup");
            counts[c] = static_cast<std::uint32_t>(members[c].size());
            cellList.initRange(cluster, c * maxPerCell, members[c].size(),
                               members[c].data());
        }
        cellCount.initRange(cluster, 0, cells, counts.data());

        // 3-D block partition of the cell grid (the SPLASH spatial
        // decomposition): locks are only needed for cells whose
        // neighbourhood crosses an ownership boundary.
        int px = 1, py = 1, pz = 1;
        {
            int rem = np;
            for (int f = static_cast<int>(std::cbrt(rem)); f >= 1; --f) {
                if (rem % f == 0) {
                    pz = f;
                    rem /= f;
                    break;
                }
            }
            for (int f = static_cast<int>(std::sqrt(rem)); f >= 1; --f) {
                if (rem % f == 0) {
                    py = f;
                    rem /= f;
                    break;
                }
            }
            px = rem;
        }
        auto dim_owner = [this](int parts, std::uint64_t coord) {
            for (int q = 0; q < parts; ++q) {
                const Range r = blockRange(cellsPerDim, parts, q);
                if (coord >= r.begin && coord < r.end)
                    return q;
            }
            return 0;
        };
        cellOwner.assign(cells, 0);
        for (std::uint64_t x = 0; x < cellsPerDim; ++x)
            for (std::uint64_t y = 0; y < cellsPerDim; ++y)
                for (std::uint64_t z = 0; z < cellsPerDim; ++z)
                    cellOwner[(x * cellsPerDim + y) * cellsPerDim + z] =
                        (dim_owner(px, x) * py + dim_owner(py, y)) * pz +
                        dim_owner(pz, z);
        cellNeedsLock.assign(cells, false);
        const auto dim = static_cast<std::int64_t>(cellsPerDim);
        for (std::int64_t x = 0; x < dim; ++x) {
            for (std::int64_t y = 0; y < dim; ++y) {
                for (std::int64_t z = 0; z < dim; ++z) {
                    const std::uint64_t c =
                        (static_cast<std::uint64_t>(x) * cellsPerDim +
                         static_cast<std::uint64_t>(y)) *
                            cellsPerDim +
                        static_cast<std::uint64_t>(z);
                    for (std::int64_t ddx = -1;
                         ddx <= 1 && !cellNeedsLock[c]; ++ddx)
                        for (std::int64_t ddy = -1;
                             ddy <= 1 && !cellNeedsLock[c]; ++ddy)
                            for (std::int64_t ddz = -1; ddz <= 1; ++ddz) {
                                const std::int64_t nx = x + ddx;
                                const std::int64_t ny = y + ddy;
                                const std::int64_t nz = z + ddz;
                                if (nx < 0 || ny < 0 || nz < 0 ||
                                    nx >= dim || ny >= dim || nz >= dim)
                                    continue;
                                const std::uint64_t c2 =
                                    (static_cast<std::uint64_t>(nx) *
                                         cellsPerDim +
                                     static_cast<std::uint64_t>(ny)) *
                                        cellsPerDim +
                                    static_cast<std::uint64_t>(nz);
                                if (cellOwner[c2] != cellOwner[c]) {
                                    cellNeedsLock[c] = true;
                                    break;
                                }
                            }
                }
            }
        }
    } else {
        molLocks.resize(n);
        for (auto &l : molLocks)
            l = cluster.allocLock();
    }
}

void
WaterWorkload::bodyNsquared(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    const Range blk = blockRange(n, np, me);
    std::vector<double> positions(3 * n);
    std::vector<Vec3> acc(n);
    std::vector<bool> touched(n);

    for (int s = 0; s < steps; ++s) {
        // Zero our force block.
        for (std::uint64_t i = blk.begin; i < blk.end; ++i)
            writeVec(t, i, forceOff, Vec3{});
        t.barrier(bar);

        // All positions (page-grained remote reads via the records),
        // then my pair set: molecule i with the next n/2, cyclically.
        for (std::uint64_t j = 0; j < n; ++j) {
            const Vec3 pj = readVec(t, j, posOff);
            positions[3 * j] = pj.x;
            positions[3 * j + 1] = pj.y;
            positions[3 * j + 2] = pj.z;
        }
        std::fill(acc.begin(), acc.end(), Vec3{});
        std::fill(touched.begin(), touched.end(), false);
        const std::uint64_t half = n / 2;
        std::uint64_t pairs = 0;
        for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
            for (std::uint64_t k = 1; k <= half; ++k) {
                const std::uint64_t j = (i + k) % n;
                if (2 * k == n && i >= half)
                    continue; // count the diametric pair once
                const Vec3 pi{positions[3 * i], positions[3 * i + 1],
                              positions[3 * i + 2]};
                const Vec3 pj{positions[3 * j], positions[3 * j + 1],
                              positions[3 * j + 2]};
                const Vec3 f = pairForce(pi, pj);
                acc[i].x += f.x;
                acc[i].y += f.y;
                acc[i].z += f.z;
                acc[j].x -= f.x;
                acc[j].y -= f.y;
                acc[j].z -= f.z;
                touched[i] = touched[j] = true;
                ++pairs;
            }
        }
        t.compute(pairs * pairCost);

        // Migratory accumulation under per-molecule locks.
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!touched[i])
                continue;
            t.acquire(molLocks[i]);
            addVec(t, i, forceOff, acc[i]);
            t.release(molLocks[i]);
        }
        t.barrier(bar);

        // Integrate our own molecules.
        for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
            const Vec3 f = readVec(t, i, forceOff);
            Vec3 v = readVec(t, i, velOff);
            Vec3 p = readVec(t, i, posOff);
            v.x += f.x * timeStep;
            v.y += f.y * timeStep;
            v.z += f.z * timeStep;
            p.x += v.x * timeStep;
            p.y += v.y * timeStep;
            p.z += v.z * timeStep;
            writeVec(t, i, velOff, v);
            writeVec(t, i, posOff, p);
        }
        t.compute(blk.size() * integrateCost);
        t.barrier(bar);
    }
}

void
WaterWorkload::bodySpatial(Thread &t)
{
    const int me = t.id();
    const std::uint64_t cells = cellsPerDim * cellsPerDim * cellsPerDim;
    const auto dim = static_cast<std::int64_t>(cellsPerDim);
    std::vector<std::uint64_t> my_cells;
    for (std::uint64_t c = 0; c < cells; ++c)
        if (cellOwner[c] == me)
            my_cells.push_back(c);

    auto cell_index = [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        return (static_cast<std::uint64_t>(x) * cellsPerDim +
                static_cast<std::uint64_t>(y)) *
                   cellsPerDim +
               static_cast<std::uint64_t>(z);
    };

    std::vector<Vec3> acc(n);
    std::vector<bool> touched(n);
    std::vector<std::uint32_t> mine, theirs;

    for (int s = 0; s < steps; ++s) {
        // Zero forces of molecules currently in our cells.
        for (const std::uint64_t c : my_cells) {
            const std::uint32_t cnt = cellCount.get(t, c);
            for (std::uint32_t k = 0; k < cnt; ++k) {
                const std::uint32_t i = cellList.get(t, c * maxPerCell + k);
                writeVec(t, i, forceOff, Vec3{});
            }
        }
        t.barrier(bar);

        // Pair forces from neighbouring cells (pair-once by ordering).
        std::fill(acc.begin(), acc.end(), Vec3{});
        std::fill(touched.begin(), touched.end(), false);
        std::vector<std::uint64_t> touched_cells;
        std::uint64_t pairs = 0;
        for (const std::uint64_t c : my_cells) {
            const auto cx = static_cast<std::int64_t>(
                c / (cellsPerDim * cellsPerDim));
            const auto cy = static_cast<std::int64_t>(
                (c / cellsPerDim) % cellsPerDim);
            const auto cz = static_cast<std::int64_t>(c % cellsPerDim);
            const std::uint32_t cnt = cellCount.get(t, c);
            mine.resize(cnt);
            for (std::uint32_t k = 0; k < cnt; ++k)
                mine[k] = cellList.get(t, c * maxPerCell + k);

            for (std::int64_t dx = -1; dx <= 1; ++dx) {
                for (std::int64_t dy = -1; dy <= 1; ++dy) {
                    for (std::int64_t dz = -1; dz <= 1; ++dz) {
                        const std::int64_t nx = cx + dx;
                        const std::int64_t ny = cy + dy;
                        const std::int64_t nz = cz + dz;
                        if (nx < 0 || ny < 0 || nz < 0 || nx >= dim ||
                            ny >= dim || nz >= dim)
                            continue;
                        const std::uint64_t c2 = cell_index(nx, ny, nz);
                        if (c2 < c)
                            continue; // pair cells once
                        bool any_pair = false;
                        const std::uint32_t cnt2 = cellCount.get(t, c2);
                        theirs.resize(cnt2);
                        for (std::uint32_t k = 0; k < cnt2; ++k)
                            theirs[k] =
                                cellList.get(t, c2 * maxPerCell + k);
                        for (const std::uint32_t i : mine) {
                            const Vec3 pi = readVec(t, i, posOff);
                            for (const std::uint32_t j : theirs) {
                                if (c2 == c && j <= i)
                                    continue; // within-cell pairs once
                                const Vec3 pj = readVec(t, j, posOff);
                                const double ddx = pi.x - pj.x;
                                const double ddy = pi.y - pj.y;
                                const double ddz = pi.z - pj.z;
                                if (ddx * ddx + ddy * ddy + ddz * ddz >
                                    cutoff * cutoff)
                                    continue;
                                const Vec3 f = pairForce(pi, pj);
                                acc[i].x += f.x;
                                acc[i].y += f.y;
                                acc[i].z += f.z;
                                acc[j].x -= f.x;
                                acc[j].y -= f.y;
                                acc[j].z -= f.z;
                                touched[i] = touched[j] = true;
                                any_pair = true;
                                ++pairs;
                            }
                        }
                        if (any_pair) {
                            touched_cells.push_back(c);
                            touched_cells.push_back(c2);
                        }
                    }
                }
            }
        }
        t.compute(pairs * pairCost);
        std::sort(touched_cells.begin(), touched_cells.end());
        touched_cells.erase(
            std::unique(touched_cells.begin(), touched_cells.end()),
            touched_cells.end());

        // Accumulate into the touched cells: interior cells of our own
        // partition are written by us alone (no lock); cells whose
        // neighbourhood crosses an ownership boundary take the cell
        // lock (the SPLASH boundary-locking discipline).
        for (const std::uint64_t c : touched_cells) {
            const bool lock = cellNeedsLock[c];
            if (lock)
                t.acquire(cellLocks[c]);
            const std::uint32_t cnt = cellCount.get(t, c);
            for (std::uint32_t k = 0; k < cnt; ++k) {
                const std::uint32_t i = cellList.get(t, c * maxPerCell + k);
                if (touched[i]) {
                    addVec(t, i, forceOff, acc[i]);
                    touched[i] = false;
                    acc[i] = Vec3{};
                }
            }
            if (lock)
                t.release(cellLocks[c]);
        }
        t.barrier(bar);

        // Integrate molecules in our cells; queue migrations.
        struct Migration
        {
            std::uint32_t mol;
            std::uint64_t from;
            std::uint64_t to;
        };
        std::vector<Migration> migrate;
        for (const std::uint64_t c : my_cells) {
            const std::uint32_t cnt = cellCount.get(t, c);
            for (std::uint32_t k = 0; k < cnt; ++k) {
                const std::uint32_t i = cellList.get(t, c * maxPerCell + k);
                const Vec3 f = readVec(t, i, forceOff);
                Vec3 v = readVec(t, i, velOff);
                Vec3 p = readVec(t, i, posOff);
                v.x += f.x * timeStep;
                v.y += f.y * timeStep;
                v.z += f.z * timeStep;
                p.x += v.x * timeStep;
                p.y += v.y * timeStep;
                p.z += v.z * timeStep;
                writeVec(t, i, velOff, v);
                writeVec(t, i, posOff, p);
                t.compute(integrateCost);
                const std::uint64_t nc = cellOf(p);
                if (nc != c)
                    migrate.push_back(Migration{i, c, nc});
            }
        }
        t.barrier(bar);

        // Migrations under cell locks (rare with a small time step).
        for (const auto &[i, oc, nc] : migrate) {
            t.acquire(cellLocks[oc]);
            const std::uint32_t ocnt = cellCount.get(t, oc);
            for (std::uint32_t k = 0; k < ocnt; ++k) {
                if (cellList.get(t, oc * maxPerCell + k) == i) {
                    const std::uint32_t last =
                        cellList.get(t, oc * maxPerCell + ocnt - 1);
                    cellList.put(t, oc * maxPerCell + k, last);
                    cellCount.put(t, oc, ocnt - 1);
                    break;
                }
            }
            t.release(cellLocks[oc]);
            t.acquire(cellLocks[nc]);
            const std::uint32_t cnt = cellCount.get(t, nc);
            if (cnt >= maxPerCell)
                SWSM_PANIC("water cell overflow during migration");
            cellList.put(t, nc * maxPerCell + cnt, i);
            cellCount.put(t, nc, cnt + 1);
            t.release(cellLocks[nc]);
        }
        t.barrier(bar);
    }
}

void
WaterWorkload::body(Thread &t)
{
    if (spatial)
        bodySpatial(t);
    else
        bodyNsquared(t);
}

bool
WaterWorkload::verify(Cluster &cluster)
{
    // Native reference: identical physics, sequential accumulation.
    std::vector<double> p = initPos;
    std::vector<double> v = initVel;
    const bool use_cutoff = spatial;
    for (int s = 0; s < steps; ++s) {
        std::vector<Vec3> f(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t j = i + 1; j < n; ++j) {
                const Vec3 pi{p[3 * i], p[3 * i + 1], p[3 * i + 2]};
                const Vec3 pj{p[3 * j], p[3 * j + 1], p[3 * j + 2]};
                if (use_cutoff) {
                    const double dx = pi.x - pj.x;
                    const double dy = pi.y - pj.y;
                    const double dz = pi.z - pj.z;
                    if (dx * dx + dy * dy + dz * dz > cutoff * cutoff)
                        continue;
                }
                const Vec3 fij = pairForce(pi, pj);
                f[i].x += fij.x;
                f[i].y += fij.y;
                f[i].z += fij.z;
                f[j].x -= fij.x;
                f[j].y -= fij.y;
                f[j].z -= fij.z;
            }
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            v[3 * i] += f[i].x * timeStep;
            v[3 * i + 1] += f[i].y * timeStep;
            v[3 * i + 2] += f[i].z * timeStep;
            p[3 * i] += v[3 * i] * timeStep;
            p[3 * i + 1] += v[3 * i + 1] * timeStep;
            p[3 * i + 2] += v[3 * i + 2] * timeStep;
        }
    }

    for (std::uint64_t m = 0; m < n; ++m) {
        double pos[3];
        mol.peekRange(cluster, m * molStride + posOff, 3, pos);
        for (std::uint64_t d = 0; d < 3; ++d) {
            const std::uint64_t i = 3 * m + d;
            const double got = pos[d];
            if (std::abs(got - p[i]) > 1e-7 * (1.0 + std::abs(p[i]))) {
                SWSM_WARN("water mismatch at %llu: %g vs %g",
                          static_cast<unsigned long long>(i), got, p[i]);
                return false;
            }
        }
    }
    return true;
}

} // namespace swsm
