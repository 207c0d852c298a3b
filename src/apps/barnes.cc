#include "barnes.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{

constexpr double gravEps = 1e-4;  ///< softening (squared length units)
constexpr double timeStep = 0.01;
constexpr int maxDepth = 28;
constexpr Cycles interactionCost = 30;
constexpr Cycles insertLevelCost = 20;
constexpr Cycles comCost = 30;
constexpr std::uint32_t allocChunk = 64;

/** Softened gravitational pull of (mass m at q) on a body at p. */
void
gravAdd(double px, double py, double pz, double qx, double qy, double qz,
        double m, double &fx, double &fy, double &fz)
{
    const double dx = qx - px;
    const double dy = qy - py;
    const double dz = qz - pz;
    const double d2 = dx * dx + dy * dy + dz * dz + gravEps;
    const double inv = m / (d2 * std::sqrt(d2));
    fx += inv * dx;
    fy += inv * dy;
    fz += inv * dz;
}

} // namespace

BarnesWorkload::BarnesWorkload(SizeClass size, bool spatial)
    : spatial(spatial)
{
    switch (size) {
      case SizeClass::Tiny:
        n = 256;
        steps = 2;
        break;
      case SizeClass::Small:
        n = 2048;
        steps = 2;
        break;
      case SizeClass::Medium:
        n = 8192;
        steps = 2;
        break;
      case SizeClass::Paper:
        n = 16384; // the paper's body count
        steps = 2;
        break;
    }
    pmass = 1.0 / static_cast<double>(n);
    // Generous pool: the spatial build carves it into per-processor
    // ranges, and clustered inputs concentrate most cells in a few
    // octants, so each range must roughly cover a whole cluster.
    maxCells = static_cast<std::uint32_t>(24 * n + 512);
    prebuiltCells = 1 + 8 + 64 + 512; // root + three pre-built levels
}

int
BarnesWorkload::octantOf(const Vec3 &p, const Vec3 &c)
{
    return (p.x >= c.x ? 4 : 0) | (p.y >= c.y ? 2 : 0) |
           (p.z >= c.z ? 1 : 0);
}

BarnesWorkload::Vec3
BarnesWorkload::octantCentre(const Vec3 &c, double h, int o)
{
    const double q = h / 2.0;
    return Vec3{c.x + ((o & 4) ? q : -q), c.y + ((o & 2) ? q : -q),
                c.z + ((o & 1) ? q : -q)};
}

BarnesWorkload::Vec3
BarnesWorkload::readParticlePos(Thread &t, std::uint32_t i)
{
    return Vec3{px.get(t, i), py.get(t, i), pz.get(t, i)};
}

void
BarnesWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    const std::uint32_t page = cluster.params().pageBytes;

    px = SharedArray<double>(cluster, n, page);
    py = SharedArray<double>(cluster, n, page);
    pz = SharedArray<double>(cluster, n, page);
    vx = SharedArray<double>(cluster, n, page);
    vy = SharedArray<double>(cluster, n, page);
    vz = SharedArray<double>(cluster, n, page);
    fx = SharedArray<double>(cluster, n, page);
    fy = SharedArray<double>(cluster, n, page);
    fz = SharedArray<double>(cluster, n, page);
    child = SharedArray<std::int32_t>(cluster, 8ull * maxCells, page);
    cellDepth = SharedArray<std::int32_t>(cluster, maxCells, page);
    cellMass = SharedArray<double>(cluster, maxCells, page);
    comX = SharedArray<double>(cluster, maxCells, page);
    comY = SharedArray<double>(cluster, maxCells, page);
    comZ = SharedArray<double>(cluster, maxCells, page);
    nextCell = SharedArray<std::uint32_t>(cluster, 1);
    bar = cluster.allocBarrier();
    allocLock = cluster.allocLock();
    cellLocks.resize(maxCells);
    for (auto &l : cellLocks)
        l = cluster.allocLock();

    // Home particle blocks at their index owners.
    for (int p = 0; p < np; ++p) {
        const Range blk = blockRange(n, np, p);
        const std::uint64_t bytes = blk.size() * sizeof(double);
        for (auto *arr : {&px, &py, &pz, &vx, &vy, &vz, &fx, &fy, &fz})
            cluster.space().setRangeHome(arr->addr(blk.begin), bytes, p);
    }

    // Clustered particle distribution (deliberately imbalanced across
    // octants: the spatial version's load-balance trade-off).
    Rng rng(31);
    auto gaussian = [&rng] {
        const double u1 = rng.nextDouble() + 1e-12;
        const double u2 = rng.nextDouble();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    };
    struct ClusterSpec
    {
        double cx, cy, cz, sigma, weight;
    };
    // Cluster spreads straddle several level-2 octants so the spatial
    // build's imbalance is pronounced but not degenerate.
    const ClusterSpec specs[4] = {
        {0.6, 0.6, 0.6, 0.30, 0.40},
        {-0.7, 0.5, -0.3, 0.35, 0.25},
        {0.3, -0.8, 0.2, 0.45, 0.20},
        {-0.4, -0.4, -0.8, 0.60, 0.15},
    };
    ipx.resize(n);
    ipy.resize(n);
    ipz.resize(n);
    ivx.resize(n);
    ivy.resize(n);
    ivz.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const double pick = rng.nextDouble();
        double acc = 0.0;
        const ClusterSpec *spec = &specs[3];
        for (const auto &s : specs) {
            acc += s.weight;
            if (pick < acc) {
                spec = &s;
                break;
            }
        }
        auto clamp = [this](double v) {
            return std::min(std::max(v, -boxHalf + 0.05), boxHalf - 0.05);
        };
        ipx[i] = clamp(spec->cx + gaussian() * spec->sigma);
        ipy[i] = clamp(spec->cy + gaussian() * spec->sigma);
        ipz[i] = clamp(spec->cz + gaussian() * spec->sigma);
        ivx[i] = (rng.nextDouble() - 0.5) * 0.02;
        ivy[i] = (rng.nextDouble() - 0.5) * 0.02;
        ivz[i] = (rng.nextDouble() - 0.5) * 0.02;
    }
    px.initRange(cluster, 0, n, ipx.data());
    py.initRange(cluster, 0, n, ipy.data());
    pz.initRange(cluster, 0, n, ipz.data());
    vx.initRange(cluster, 0, n, ivx.data());
    vy.initRange(cluster, 0, n, ivy.data());
    vz.initRange(cluster, 0, n, ivz.data());

    // Empty tree; the first reset/build round fills it in.
    initFill(cluster, child, emptySlot);
    initFill(cluster, cellDepth, 0);
    nextCell.init(cluster, 0, 2); // cell 1 is the root
}

std::uint32_t
BarnesWorkload::allocCell(Thread &t, std::uint32_t &chunk_next,
                          std::uint32_t &chunk_end)
{
    if (chunk_next == chunk_end) {
        if (spatial)
            SWSM_PANIC("barnes-spatial per-processor cell range exhausted");
        t.acquire(allocLock);
        const std::uint32_t cur = nextCell.get(t, 0);
        if (cur + allocChunk > maxCells)
            SWSM_PANIC("barnes cell pool exhausted");
        nextCell.put(t, 0, cur + allocChunk);
        t.release(allocLock);
        chunk_next = cur;
        chunk_end = cur + allocChunk;
    }
    return chunk_next++;
}

void
BarnesWorkload::splitSlot(Thread &t, std::uint32_t cell, int oct,
                          std::int32_t old_ref, std::uint32_t new_particle,
                          const Vec3 &slot_centre, double slot_half,
                          int depth, std::uint32_t &chunk_next,
                          std::uint32_t &chunk_end)
{
    const Vec3 p_old = readParticlePos(t, particleOf(old_ref));
    const Vec3 p_new = readParticlePos(t, new_particle);

    // Build the chain fully before linking it under `cell`'s slot, so
    // concurrent descents never see a half-built subtree. In the locked
    // build every new cell's own lock is held across its initialization:
    // a later inserter that reaches the new cell acquires that lock and
    // the LRC write notices of this interval with it — without this the
    // build would race under lazy release consistency (a reader could
    // re-validate against a stale copy and overwrite a slot).
    const bool locked = !spatial;
    std::vector<std::uint32_t> chain;
    const std::uint32_t first = allocCell(t, chunk_next, chunk_end);
    if (locked)
        t.acquire(cellLocks[first]);
    chain.push_back(first);
    std::uint32_t cur = first;
    Vec3 centre = slot_centre;
    double half = slot_half;
    int d = depth;
    for (;;) {
        cellDepth.put(t, cur, d);
        const int o_old = octantOf(p_old, centre);
        const int o_new = octantOf(p_new, centre);
        t.compute(insertLevelCost);
        if (o_old != o_new) {
            child.put(t, 8ull * cur + o_old, old_ref);
            child.put(t, 8ull * cur + o_new, particleRef(new_particle));
            break;
        }
        if (++d > maxDepth)
            SWSM_PANIC("barnes tree too deep (coincident particles?)");
        const std::uint32_t deeper = allocCell(t, chunk_next, chunk_end);
        if (locked)
            t.acquire(cellLocks[deeper]);
        chain.push_back(deeper);
        child.put(t, 8ull * cur + o_old, static_cast<std::int32_t>(deeper));
        centre = octantCentre(centre, half, o_old);
        half /= 2.0;
        cur = deeper;
    }
    child.put(t, 8ull * cell + oct, static_cast<std::int32_t>(first));
    if (locked) {
        for (auto it = chain.rbegin(); it != chain.rend(); ++it)
            t.release(cellLocks[*it]);
    }
}

void
BarnesWorkload::insertLocked(Thread &t, std::uint32_t i, const Vec3 &p,
                             std::uint32_t &chunk_next,
                             std::uint32_t &chunk_end)
{
    std::uint32_t cur = 1;
    Vec3 centre{0, 0, 0};
    double half = boxHalf;
    int depth = 1;
    for (;;) {
        const int oct = octantOf(p, centre);
        t.compute(insertLevelCost);
        std::int32_t v = child.get(t, 8ull * cur + oct);
        if (v > 0) {
            centre = octantCentre(centre, half, oct);
            half /= 2.0;
            ++depth;
            cur = static_cast<std::uint32_t>(v);
            continue;
        }
        // Empty or particle: take the cell lock and re-validate (the
        // unsynchronized read above may have been stale under LRC).
        t.acquire(cellLocks[cur]);
        v = child.get(t, 8ull * cur + oct);
        if (v > 0) {
            t.release(cellLocks[cur]);
            centre = octantCentre(centre, half, oct);
            half /= 2.0;
            ++depth;
            cur = static_cast<std::uint32_t>(v);
            continue;
        }
        if (v == emptySlot) {
            child.put(t, 8ull * cur + oct, particleRef(i));
            t.release(cellLocks[cur]);
            return;
        }
        splitSlot(t, cur, oct, v, i, octantCentre(centre, half, oct),
                  half / 2.0, depth + 1, chunk_next, chunk_end);
        t.release(cellLocks[cur]);
        return;
    }
}

void
BarnesWorkload::insertOwned(Thread &t, std::uint32_t i, const Vec3 &p,
                            std::uint32_t root_cell,
                            const Vec3 &root_centre, double root_half,
                            int root_depth, std::uint32_t &chunk_next,
                            std::uint32_t &chunk_end)
{
    std::uint32_t cur = root_cell;
    Vec3 centre = root_centre;
    double half = root_half;
    int depth = root_depth;
    for (;;) {
        const int oct = octantOf(p, centre);
        t.compute(insertLevelCost);
        const std::int32_t v = child.get(t, 8ull * cur + oct);
        if (v > 0) {
            centre = octantCentre(centre, half, oct);
            half /= 2.0;
            ++depth;
            cur = static_cast<std::uint32_t>(v);
            continue;
        }
        if (v == emptySlot) {
            child.put(t, 8ull * cur + oct, particleRef(i));
            return;
        }
        splitSlot(t, cur, oct, v, i, octantCentre(centre, half, oct),
                  half / 2.0, depth + 1, chunk_next, chunk_end);
        return;
    }
}

void
BarnesWorkload::resetTree(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    // Clear the slots used in the previous step. The original build
    // partitions the shared allocation cursor's range; the spatial
    // build clears each processor's private cell range (its cursor is
    // private) plus the pre-built levels.
    Range rng;
    if (spatial) {
        const std::uint32_t pool = maxCells - prebuiltCells - 1;
        const Range mine = blockRange(pool, np, me);
        rng = Range{prebuiltCells + 1 + mine.begin,
                    prebuiltCells + 1 + mine.end};
        if (me == 0)
            rng.begin = 0; // also clear root + pre-built levels
    } else {
        const std::uint32_t used = nextCell.get(t, 0);
        rng = blockRange(used, np, me);
    }
    if (rng.size() > 0) {
        std::vector<std::int32_t> zeros(8 * rng.size(), emptySlot);
        t.writeBytes(child.addr(8ull * rng.begin), zeros.data(),
                     zeros.size() * sizeof(std::int32_t));
    }
    t.barrier(bar);
    if (me == 0) {
        if (spatial) {
            // Pre-build three levels: root -> 8 -> 64 -> 512 octant
            // roots (cells 74..585). One level-2 octant can hold a
            // whole particle cluster; splitting once more spreads the
            // hot region over several owners while keeping the
            // restructured version's static, lock-free assignment.
            for (int o = 0; o < 8; ++o) {
                child.put(t, 8ull * 1 + o, 2 + o);
                cellDepth.put(t, 2 + o, 2);
                for (int o2 = 0; o2 < 8; ++o2) {
                    const int c2 = 10 + o * 8 + o2;
                    child.put(t, 8ull * (2 + o) + o2, c2);
                    cellDepth.put(t, c2, 3);
                    for (int o3 = 0; o3 < 8; ++o3) {
                        const int c3 = 74 + (o * 8 + o2) * 8 + o3;
                        child.put(t, 8ull * c2 + o3, c3);
                        cellDepth.put(t, c3, 4);
                    }
                }
            }
            nextCell.put(t, 0, prebuiltCells + 1);
        } else {
            nextCell.put(t, 0, 2);
        }
        cellDepth.put(t, 1, 1);
    }
    t.barrier(bar);
}

void
BarnesWorkload::buildTree(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    std::uint32_t chunk_next = 0;
    std::uint32_t chunk_end = 0;

    if (!spatial) {
        const Range blk = blockRange(n, np, me);
        for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
            const Vec3 p = readParticlePos(
                t, static_cast<std::uint32_t>(i));
            insertLocked(t, static_cast<std::uint32_t>(i), p, chunk_next,
                         chunk_end);
        }
        t.barrier(bar);
        return;
    }

    // Spatial: private cell range, lock-free inserts into owned octants.
    const std::uint32_t pool = maxCells - prebuiltCells - 1;
    chunk_next = prebuiltCells + 1 +
        static_cast<std::uint32_t>(
            blockRange(pool, np, me).begin);
    chunk_end = prebuiltCells + 1 +
        static_cast<std::uint32_t>(blockRange(pool, np, me).end);

    for (std::uint64_t i = 0; i < n; ++i) {
        const Vec3 p = readParticlePos(t, static_cast<std::uint32_t>(i));
        const int o1 = octantOf(p, Vec3{0, 0, 0});
        const Vec3 c1 = octantCentre(Vec3{0, 0, 0}, boxHalf, o1);
        const int o2 = octantOf(p, c1);
        const Vec3 c2 = octantCentre(c1, boxHalf / 2.0, o2);
        const int o3 = octantOf(p, c2);
        const int o512 = (o1 * 8 + o2) * 8 + o3;
        if (o512 % np != me)
            continue;
        insertOwned(t, static_cast<std::uint32_t>(i), p,
                    static_cast<std::uint32_t>(74 + o512),
                    octantCentre(c2, boxHalf / 4.0, o3), boxHalf / 8.0, 4,
                    chunk_next, chunk_end);
    }
    t.barrier(bar);
}

void
BarnesWorkload::cellCom(Thread &t, std::uint32_t cell)
{
    double m = 0, cx = 0, cy = 0, cz = 0;
    for (int o = 0; o < 8; ++o) {
        const std::int32_t v = child.get(t, 8ull * cell + o);
        if (v == emptySlot)
            continue;
        if (v < 0) {
            const std::uint32_t i = particleOf(v);
            const Vec3 p = readParticlePos(t, i);
            m += pmass;
            cx += pmass * p.x;
            cy += pmass * p.y;
            cz += pmass * p.z;
        } else {
            const auto c = static_cast<std::uint32_t>(v);
            const double cm = cellMass.get(t, c);
            m += cm;
            cx += cm * comX.get(t, c);
            cy += cm * comY.get(t, c);
            cz += cm * comZ.get(t, c);
        }
    }
    t.compute(comCost);
    cellMass.put(t, cell, m);
    if (m > 0) {
        comX.put(t, cell, cx / m);
        comY.put(t, cell, cy / m);
        comZ.put(t, cell, cz / m);
    }
}

void
BarnesWorkload::computeComs(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();

    if (spatial) {
        // Each processor finishes its own octants' subtrees bottom-up
        // (post-order, no synchronization needed inside owned trees);
        // processor 0 then folds the two pre-built levels.
        std::function<void(std::uint32_t)> down = [&](std::uint32_t cell) {
            for (int o = 0; o < 8; ++o) {
                const std::int32_t v = child.get(t, 8ull * cell + o);
                if (v > 0)
                    down(static_cast<std::uint32_t>(v));
            }
            cellCom(t, cell);
        };
        for (int o512 = 0; o512 < 512; ++o512) {
            if (o512 % np == me)
                down(static_cast<std::uint32_t>(74 + o512));
        }
        t.barrier(bar);
        if (me == 0) {
            for (int o64 = 0; o64 < 64; ++o64)
                cellCom(t, 10 + o64);
            for (int o = 0; o < 8; ++o)
                cellCom(t, 2 + o);
            cellCom(t, 1);
        }
        t.barrier(bar);
        return;
    }

    // Original: level-synchronized bottom-up pass over scattered cells.
    const std::uint32_t used = nextCell.get(t, 0);
    std::vector<std::vector<std::uint32_t>> by_depth(maxDepth + 1);
    for (std::uint32_t c = 1; c < used; ++c) {
        if (c % static_cast<std::uint32_t>(np) !=
            static_cast<std::uint32_t>(me))
            continue;
        const std::int32_t d = cellDepth.get(t, c);
        if (d > 0 && d <= maxDepth)
            by_depth[d].push_back(c);
    }
    for (int d = maxDepth; d >= 1; --d) {
        for (const std::uint32_t c : by_depth[d])
            cellCom(t, c);
        t.barrier(bar);
    }
}

BarnesWorkload::Vec3
BarnesWorkload::forceOn(Thread &t, std::uint32_t i, const Vec3 &p,
                        std::uint32_t cell, const Vec3 &centre,
                        double half, std::uint64_t &interactions)
{
    Vec3 f{};
    for (int o = 0; o < 8; ++o) {
        const std::int32_t v = child.get(t, 8ull * cell + o);
        if (v == emptySlot)
            continue;
        if (v < 0) {
            const std::uint32_t j = particleOf(v);
            if (j == i)
                continue;
            const Vec3 q = readParticlePos(t, j);
            gravAdd(p.x, p.y, p.z, q.x, q.y, q.z, pmass, f.x, f.y, f.z);
            ++interactions;
            continue;
        }
        const auto c = static_cast<std::uint32_t>(v);
        const Vec3 cc = octantCentre(centre, half, o);
        const double ch = half / 2.0;
        const double m = cellMass.get(t, c);
        const double qx = comX.get(t, c);
        const double qy = comY.get(t, c);
        const double qz = comZ.get(t, c);
        const double dx = qx - p.x;
        const double dy = qy - p.y;
        const double dz = qz - p.z;
        const double dist =
            std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-12;
        if (2.0 * ch / dist < theta) {
            gravAdd(p.x, p.y, p.z, qx, qy, qz, m, f.x, f.y, f.z);
            ++interactions;
        } else {
            const Vec3 sub = forceOn(t, i, p, c, cc, ch, interactions);
            f.x += sub.x;
            f.y += sub.y;
            f.z += sub.z;
        }
    }
    return f;
}

void
BarnesWorkload::computeForces(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    std::uint64_t interactions = 0;

    auto do_particle = [&](std::uint32_t i) {
        const Vec3 p = readParticlePos(t, i);
        const Vec3 f =
            forceOn(t, i, p, 1, Vec3{0, 0, 0}, boxHalf, interactions);
        fx.put(t, i, f.x);
        fy.put(t, i, f.y);
        fz.put(t, i, f.z);
        t.compute(interactions * interactionCost);
        interactions = 0;
    };

    if (!spatial) {
        const Range blk = blockRange(n, np, me);
        for (std::uint64_t i = blk.begin; i < blk.end; ++i)
            do_particle(static_cast<std::uint32_t>(i));
    } else {
        // Owner-computes by octant: imbalanced for clustered inputs.
        for (std::uint64_t i = 0; i < n; ++i) {
            const Vec3 p =
                readParticlePos(t, static_cast<std::uint32_t>(i));
            const int o1 = octantOf(p, Vec3{0, 0, 0});
            const Vec3 c1 = octantCentre(Vec3{0, 0, 0}, boxHalf, o1);
            const int o2 = octantOf(p, c1);
            const Vec3 c2 = octantCentre(c1, boxHalf / 2.0, o2);
            const int o512 = (o1 * 8 + o2) * 8 + octantOf(p, c2);
            if (o512 % np == me)
                do_particle(static_cast<std::uint32_t>(i));
        }
    }
    t.barrier(bar);
}

void
BarnesWorkload::integrate(Thread &t)
{
    const Range blk = blockRange(n, t.nprocs(), t.id());
    for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
        const double ax = fx.get(t, i) / pmass;
        const double ay = fy.get(t, i) / pmass;
        const double az = fz.get(t, i) / pmass;
        double nvx = vx.get(t, i) + ax * timeStep;
        double nvy = vy.get(t, i) + ay * timeStep;
        double nvz = vz.get(t, i) + az * timeStep;
        auto clamp = [this](double v) {
            return std::min(std::max(v, -boxHalf + 0.01), boxHalf - 0.01);
        };
        px.put(t, i, clamp(px.get(t, i) + nvx * timeStep));
        py.put(t, i, clamp(py.get(t, i) + nvy * timeStep));
        pz.put(t, i, clamp(pz.get(t, i) + nvz * timeStep));
        vx.put(t, i, nvx);
        vy.put(t, i, nvy);
        vz.put(t, i, nvz);
        t.compute(20);
    }
    t.barrier(bar);
}

void
BarnesWorkload::body(Thread &t)
{
    for (int s = 0; s < steps; ++s) {
        resetTree(t);
        buildTree(t);
        computeComs(t);
        computeForces(t);
        integrate(t);
    }
}

bool
BarnesWorkload::verify(Cluster &cluster)
{
    // Native sequential Barnes-Hut with identical tree-shape semantics
    // (the octree is position-determined, so results must match to
    // floating-point accumulation order, which octant-order traversal
    // also fixes).
    struct Node
    {
        std::int64_t child[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        double m = 0, cx = 0, cy = 0, cz = 0;
    };
    std::vector<double> qx = ipx, qy = ipy, qz = ipz;
    std::vector<double> wx = ivx, wy = ivy, wz = ivz;

    for (int s = 0; s < steps; ++s) {
        std::vector<Node> tree(2); // node 1 = root
        auto insert_ref = [&](std::int64_t ref, double x, double y,
                              double z) {
            std::uint64_t cur = 1;
            Vec3 centre{0, 0, 0};
            double half = boxHalf;
            int depth = 1;
            for (;;) {
                const int oct =
                    octantOf(Vec3{x, y, z}, centre);
                std::int64_t v = tree[cur].child[oct];
                if (v > 0) {
                    centre = octantCentre(centre, half, oct);
                    half /= 2.0;
                    ++depth;
                    cur = static_cast<std::uint64_t>(v);
                    continue;
                }
                if (v == 0) {
                    tree[cur].child[oct] = ref;
                    return;
                }
                // Split: push the old particle down with the new one.
                const std::uint64_t i_old =
                    static_cast<std::uint64_t>(-v - 1);
                Vec3 centre2 = octantCentre(centre, half, oct);
                double half2 = half / 2.0;
                std::uint64_t parent = cur;
                int slot = oct;
                int d = depth + 1;
                for (;;) {
                    tree.push_back(Node{});
                    const std::uint64_t nc = tree.size() - 1;
                    tree[parent].child[slot] =
                        static_cast<std::int64_t>(nc);
                    const int o_old = octantOf(
                        Vec3{qx[i_old], qy[i_old], qz[i_old]}, centre2);
                    const int o_new = octantOf(Vec3{x, y, z}, centre2);
                    if (o_old != o_new) {
                        tree[nc].child[o_old] = v;
                        tree[nc].child[o_new] = ref;
                        return;
                    }
                    if (++d > maxDepth)
                        SWSM_PANIC("reference tree too deep");
                    parent = nc;
                    slot = o_old;
                    centre2 = octantCentre(centre2, half2, o_old);
                    half2 /= 2.0;
                }
            }
        };
        for (std::uint64_t i = 0; i < n; ++i)
            insert_ref(-static_cast<std::int64_t>(i) - 1, qx[i], qy[i],
                       qz[i]);

        std::function<void(std::uint64_t)> com = [&](std::uint64_t c) {
            double m = 0, cx = 0, cy = 0, cz = 0;
            for (int o = 0; o < 8; ++o) {
                const std::int64_t v = tree[c].child[o];
                if (v == 0)
                    continue;
                if (v < 0) {
                    const auto i = static_cast<std::uint64_t>(-v - 1);
                    m += pmass;
                    cx += pmass * qx[i];
                    cy += pmass * qy[i];
                    cz += pmass * qz[i];
                } else {
                    com(static_cast<std::uint64_t>(v));
                    const Node &nd = tree[static_cast<std::uint64_t>(v)];
                    m += nd.m;
                    cx += nd.m * nd.cx;
                    cy += nd.m * nd.cy;
                    cz += nd.m * nd.cz;
                }
            }
            tree[c].m = m;
            if (m > 0) {
                tree[c].cx = cx / m;
                tree[c].cy = cy / m;
                tree[c].cz = cz / m;
            }
        };
        com(1);

        std::function<void(std::uint64_t, std::uint64_t, Vec3, double,
                           double &, double &, double &)>
            force = [&](std::uint64_t i, std::uint64_t c, Vec3 centre,
                        double half, double &gx, double &gy, double &gz) {
                for (int o = 0; o < 8; ++o) {
                    const std::int64_t v = tree[c].child[o];
                    if (v == 0)
                        continue;
                    if (v < 0) {
                        const auto j = static_cast<std::uint64_t>(-v - 1);
                        if (j == i)
                            continue;
                        gravAdd(qx[i], qy[i], qz[i], qx[j], qy[j], qz[j],
                                pmass, gx, gy, gz);
                        continue;
                    }
                    const auto cc = static_cast<std::uint64_t>(v);
                    const Vec3 sc = octantCentre(centre, half, o);
                    const double sh = half / 2.0;
                    const Node &nd = tree[cc];
                    const double dx = nd.cx - qx[i];
                    const double dy = nd.cy - qy[i];
                    const double dz = nd.cz - qz[i];
                    const double dist =
                        std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-12;
                    if (2.0 * sh / dist < theta) {
                        gravAdd(qx[i], qy[i], qz[i], nd.cx, nd.cy, nd.cz,
                                nd.m, gx, gy, gz);
                    } else {
                        force(i, cc, sc, sh, gx, gy, gz);
                    }
                }
            };

        auto clamp = [this](double v) {
            return std::min(std::max(v, -boxHalf + 0.01), boxHalf - 0.01);
        };
        // Forces first (from pre-step positions), then integrate.
        std::vector<double> gx(n, 0.0), gy(n, 0.0), gz(n, 0.0);
        for (std::uint64_t i = 0; i < n; ++i)
            force(i, 1, Vec3{0, 0, 0}, boxHalf, gx[i], gy[i], gz[i]);
        for (std::uint64_t i = 0; i < n; ++i) {
            wx[i] += gx[i] / pmass * timeStep;
            wy[i] += gy[i] / pmass * timeStep;
            wz[i] += gz[i] / pmass * timeStep;
            qx[i] = clamp(qx[i] + wx[i] * timeStep);
            qy[i] = clamp(qy[i] + wy[i] * timeStep);
            qz[i] = clamp(qz[i] + wz[i] * timeStep);
        }
    }

    // The three position arrays, read in lockstep chunks.
    const std::uint64_t chunk = std::min(n, chunkElements<double>);
    std::vector<double> gx(chunk), gy(chunk), gz(chunk);
    for (std::uint64_t first = 0; first < n; first += chunk) {
        const std::uint64_t len = std::min(n - first, chunk);
        px.peekRange(cluster, first, len, gx.data());
        py.peekRange(cluster, first, len, gy.data());
        pz.peekRange(cluster, first, len, gz.data());
        for (std::uint64_t k = 0; k < len; ++k) {
            const std::uint64_t i = first + k;
            if (std::abs(gx[k] - qx[i]) > 1e-9 ||
                std::abs(gy[k] - qy[i]) > 1e-9 ||
                std::abs(gz[k] - qz[i]) > 1e-9) {
                SWSM_WARN("barnes mismatch at %llu: (%g,%g,%g) vs "
                          "(%g,%g,%g)",
                          static_cast<unsigned long long>(i), gx[k], gy[k],
                          gz[k], qx[i], qy[i], qz[i]);
                return false;
            }
        }
    }
    return true;
}

} // namespace swsm
