#include "raytrace.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{

constexpr double worldMin = -1.0;
constexpr double worldMax = 1.0;
constexpr double hitEps = 1e-9;

/** Packed 8-bit RGB. */
std::uint32_t
packRgb(double r, double g, double b)
{
    auto ch = [](double v) {
        return static_cast<std::uint32_t>(
            std::min(255.0, std::max(0.0, v * 255.0)));
    };
    return (ch(r) << 16) | (ch(g) << 8) | ch(b);
}

/**
 * Ray tracing core, templated over the scene accessor so the simulated
 * run (shared-memory reads, cycle charges) and the native reference
 * execute the same arithmetic.
 */
template <typename Reader>
class RayTracer
{
  public:
    RayTracer(Reader &rd, std::uint32_t grid_dim, std::uint32_t max_per_cell)
        : rd(rd), gridDim(grid_dim), maxPerCell(max_per_cell),
          cellSize((worldMax - worldMin) / grid_dim)
    {}

    /** Colour of the pixel (x, y) in a W x H image. */
    std::uint32_t
    pixel(std::uint32_t x, std::uint32_t y, std::uint32_t w,
          std::uint32_t h)
    {
        const double ex = 0.0, ey = 0.0, ez = -2.5;
        const double sxp = worldMin +
            (worldMax - worldMin) * (x + 0.5) / static_cast<double>(w);
        const double syp = worldMin +
            (worldMax - worldMin) * (y + 0.5) / static_cast<double>(h);
        double dx = sxp - ex, dy = syp - ey, dz = -1.0 - ez;
        normalize(dx, dy, dz);
        double r, g, b;
        trace(ex, ey, ez, dx, dy, dz, 1, r, g, b);
        rd.charge(20);
        return packRgb(r, g, b);
    }

  private:
    static void
    normalize(double &x, double &y, double &z)
    {
        const double inv = 1.0 / std::sqrt(x * x + y * y + z * z);
        x *= inv;
        y *= inv;
        z *= inv;
    }

    /** Ray-sphere intersection; returns smallest positive t or -1. */
    double
    hitSphere(std::uint32_t s, double ox, double oy, double oz,
              double dx, double dy, double dz)
    {
        rd.charge(60);
        const double cx = rd.sphereX(s), cy = rd.sphereY(s),
                     cz = rd.sphereZ(s), rad = rd.sphereR(s);
        const double lx = cx - ox, ly = cy - oy, lz = cz - oz;
        const double tca = lx * dx + ly * dy + lz * dz;
        const double d2 = lx * lx + ly * ly + lz * lz - tca * tca;
        const double r2 = rad * rad;
        if (d2 > r2)
            return -1.0;
        const double thc = std::sqrt(r2 - d2);
        const double t0 = tca - thc;
        const double t1 = tca + thc;
        if (t0 > hitEps)
            return t0;
        if (t1 > hitEps)
            return t1;
        return -1.0;
    }

    /**
     * 3-D DDA through the acceleration grid; returns the nearest sphere
     * (or -1) and its t.
     */
    std::int32_t
    traverse(double ox, double oy, double oz, double dx, double dy,
             double dz, double &best_t)
    {
        // Enter the grid AABB.
        double tmin = 0.0, tmax = 1e30;
        const double o[3] = {ox, oy, oz};
        const double d[3] = {dx, dy, dz};
        for (int a = 0; a < 3; ++a) {
            if (std::abs(d[a]) < 1e-12) {
                if (o[a] < worldMin || o[a] > worldMax)
                    return -1;
                continue;
            }
            double t0 = (worldMin - o[a]) / d[a];
            double t1 = (worldMax - o[a]) / d[a];
            if (t0 > t1)
                std::swap(t0, t1);
            tmin = std::max(tmin, t0);
            tmax = std::min(tmax, t1);
        }
        if (tmin > tmax)
            return -1;

        const double start = tmin + 1e-9;
        int cx = cellIndex(ox + dx * start);
        int cy = cellIndex(oy + dy * start);
        int cz = cellIndex(oz + dz * start);
        const int stepx = dx > 0 ? 1 : -1;
        const int stepy = dy > 0 ? 1 : -1;
        const int stepz = dz > 0 ? 1 : -1;
        auto boundary = [this](int c, int step) {
            return worldMin + (c + (step > 0 ? 1 : 0)) * cellSize;
        };
        auto next_t = [&](double oo, double dd, int c, int step) {
            return std::abs(dd) < 1e-12
                ? 1e30
                : (boundary(c, step) - oo) / dd;
        };
        double tx = next_t(ox, dx, cx, stepx);
        double ty = next_t(oy, dy, cy, stepy);
        double tz = next_t(oz, dz, cz, stepz);
        const double dtx = std::abs(dx) < 1e-12 ? 1e30 : cellSize /
                                                             std::abs(dx);
        const double dty = std::abs(dy) < 1e-12 ? 1e30 : cellSize /
                                                             std::abs(dy);
        const double dtz = std::abs(dz) < 1e-12 ? 1e30 : cellSize /
                                                             std::abs(dz);

        best_t = 1e30;
        std::int32_t best = -1;
        const int g = static_cast<int>(gridDim);
        while (cx >= 0 && cy >= 0 && cz >= 0 && cx < g && cy < g &&
               cz < g) {
            rd.charge(20);
            const std::uint32_t cell =
                (static_cast<std::uint32_t>(cx) * gridDim +
                 static_cast<std::uint32_t>(cy)) *
                    gridDim +
                static_cast<std::uint32_t>(cz);
            const std::uint32_t cnt = rd.gridCount(cell);
            for (std::uint32_t k = 0; k < cnt; ++k) {
                const std::uint32_t s =
                    rd.gridItem(cell * maxPerCell + k);
                const double t = hitSphere(s, ox, oy, oz, dx, dy, dz);
                if (t > 0 && t < best_t) {
                    best_t = t;
                    best = static_cast<std::int32_t>(s);
                }
            }
            const double cell_exit = std::min({tx, ty, tz});
            if (best >= 0 && best_t <= cell_exit + 1e-9)
                return best; // nothing in later cells can be closer
            if (cell_exit > tmax)
                break;
            if (tx <= ty && tx <= tz) {
                cx += stepx;
                tx += dtx;
            } else if (ty <= tz) {
                cy += stepy;
                ty += dty;
            } else {
                cz += stepz;
                tz += dtz;
            }
        }
        return best;
    }

    int
    cellIndex(double v) const
    {
        const int c = static_cast<int>((v - worldMin) / cellSize);
        return std::min(std::max(c, 0), static_cast<int>(gridDim) - 1);
    }

    void
    trace(double ox, double oy, double oz, double dx, double dy,
          double dz, int depth, double &r, double &g, double &b)
    {
        r = g = b = 0.05; // background / ambient haze
        double t;
        const std::int32_t s = traverse(ox, oy, oz, dx, dy, dz, t);
        if (s < 0)
            return;

        const double hx = ox + dx * t, hy = oy + dy * t,
                     hz = oz + dz * t;
        double nx = hx - rd.sphereX(s), ny = hy - rd.sphereY(s),
               nz = hz - rd.sphereZ(s);
        normalize(nx, ny, nz);

        // Fixed directional light.
        double lx = -0.4, ly = 0.8, lz = -0.45;
        normalize(lx, ly, lz);
        double diffuse = std::max(0.0, nx * lx + ny * ly + nz * lz);

        // Hard shadow.
        if (diffuse > 0) {
            double st;
            const std::int32_t blocker =
                traverse(hx + nx * 1e-6, hy + ny * 1e-6, hz + nz * 1e-6,
                         lx, ly, lz, st);
            if (blocker >= 0)
                diffuse = 0.0;
        }

        const std::uint32_t c = rd.color(s);
        const double base_r = ((c >> 16) & 0xff) / 255.0;
        const double base_g = ((c >> 8) & 0xff) / 255.0;
        const double base_b = (c & 0xff) / 255.0;
        r = base_r * (0.15 + 0.85 * diffuse);
        g = base_g * (0.15 + 0.85 * diffuse);
        b = base_b * (0.15 + 0.85 * diffuse);

        if (depth > 0 && rd.mirror(s)) {
            const double dot = dx * nx + dy * ny + dz * nz;
            double rx = dx - 2 * dot * nx;
            double ry = dy - 2 * dot * ny;
            double rz = dz - 2 * dot * nz;
            double rr, rg, rb;
            trace(hx + nx * 1e-6, hy + ny * 1e-6, hz + nz * 1e-6, rx, ry,
                  rz, depth - 1, rr, rg, rb);
            r = 0.5 * r + 0.5 * rr;
            g = 0.5 * g + 0.5 * rg;
            b = 0.5 * b + 0.5 * rb;
        }
    }

    Reader &rd;
    std::uint32_t gridDim;
    std::uint32_t maxPerCell;
    double cellSize;
};

} // namespace

RaytraceWorkload::RaytraceWorkload(SizeClass size)
{
    switch (size) {
      case SizeClass::Tiny:
        width = height = 32;
        numSpheres = 32;
        gridDim = 6;
        tile = 8;
        break;
      case SizeClass::Small:
        width = height = 128;
        numSpheres = 256;
        gridDim = 10;
        tile = 8;
        break;
      case SizeClass::Medium:
        width = height = 192;
        numSpheres = 512;
        gridDim = 12;
        tile = 8;
        break;
      case SizeClass::Paper:
        width = height = 256; // the paper's car scene scale
        numSpheres = 1024;
        gridDim = 14;
        tile = 8;
        break;
    }
}

void
RaytraceWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    const std::uint32_t page = cluster.params().pageBytes;

    // Procedural scene.
    Rng rng(555);
    scene.sx.resize(numSpheres);
    scene.sy.resize(numSpheres);
    scene.sz.resize(numSpheres);
    scene.sr.resize(numSpheres);
    scene.color.resize(numSpheres);
    scene.mirror.resize(numSpheres);
    for (std::uint32_t s = 0; s < numSpheres; ++s) {
        scene.sx[s] = (rng.nextDouble() * 1.6) - 0.8;
        scene.sy[s] = (rng.nextDouble() * 1.6) - 0.8;
        scene.sz[s] = (rng.nextDouble() * 1.6) - 0.8;
        scene.sr[s] = 0.04 + rng.nextDouble() * 0.12;
        scene.color[s] = packRgb(0.3 + 0.7 * rng.nextDouble(),
                                 0.3 + 0.7 * rng.nextDouble(),
                                 0.3 + 0.7 * rng.nextDouble());
        scene.mirror[s] = rng.nextDouble() < 0.25 ? 1 : 0;
    }

    // Uniform grid (AABB overlap binning).
    const std::uint32_t cells = gridDim * gridDim * gridDim;
    const double cell_size = (worldMax - worldMin) / gridDim;
    std::vector<std::vector<std::uint32_t>> bins(cells);
    for (std::uint32_t s = 0; s < numSpheres; ++s) {
        auto clamp_cell = [&](double v) {
            const int c = static_cast<int>((v - worldMin) / cell_size);
            return std::min(std::max(c, 0),
                            static_cast<int>(gridDim) - 1);
        };
        const int x0 = clamp_cell(scene.sx[s] - scene.sr[s]);
        const int x1 = clamp_cell(scene.sx[s] + scene.sr[s]);
        const int y0 = clamp_cell(scene.sy[s] - scene.sr[s]);
        const int y1 = clamp_cell(scene.sy[s] + scene.sr[s]);
        const int z0 = clamp_cell(scene.sz[s] - scene.sr[s]);
        const int z1 = clamp_cell(scene.sz[s] + scene.sr[s]);
        for (int x = x0; x <= x1; ++x)
            for (int y = y0; y <= y1; ++y)
                for (int z = z0; z <= z1; ++z)
                    bins[(x * gridDim + y) * gridDim + z].push_back(s);
    }
    maxPerCell = 1;
    for (const auto &bin : bins)
        maxPerCell = std::max<std::uint32_t>(maxPerCell, bin.size());
    scene.gridCount.assign(cells, 0);
    scene.gridList.assign(static_cast<std::size_t>(cells) * maxPerCell,
                          0);
    for (std::uint32_t c = 0; c < cells; ++c) {
        scene.gridCount[c] = static_cast<std::uint32_t>(bins[c].size());
        for (std::size_t k = 0; k < bins[c].size(); ++k)
            scene.gridList[static_cast<std::size_t>(c) * maxPerCell + k] =
                bins[c][k];
    }

    // Shared copies.
    sx = SharedArray<double>(cluster, numSpheres, page);
    sy = SharedArray<double>(cluster, numSpheres, page);
    sz = SharedArray<double>(cluster, numSpheres, page);
    sr = SharedArray<double>(cluster, numSpheres, page);
    scolor = SharedArray<std::uint32_t>(cluster, numSpheres, page);
    smirror = SharedArray<std::uint32_t>(cluster, numSpheres, page);
    gridCount = SharedArray<std::uint32_t>(cluster, cells, page);
    gridList = SharedArray<std::uint32_t>(
        cluster, static_cast<std::uint64_t>(cells) * maxPerCell, page);
    image = SharedArray<std::uint32_t>(
        cluster, static_cast<std::uint64_t>(width) * height, page);
    sx.initRange(cluster, 0, numSpheres, scene.sx.data());
    sy.initRange(cluster, 0, numSpheres, scene.sy.data());
    sz.initRange(cluster, 0, numSpheres, scene.sz.data());
    sr.initRange(cluster, 0, numSpheres, scene.sr.data());
    scolor.initRange(cluster, 0, numSpheres, scene.color.data());
    const std::vector<std::uint32_t> mirror(scene.mirror.begin(),
                                            scene.mirror.end());
    smirror.initRange(cluster, 0, numSpheres, mirror.data());
    gridCount.initRange(cluster, 0, cells, scene.gridCount.data());
    gridList.initRange(cluster, 0, scene.gridList.size(),
                       scene.gridList.data());

    // Task queues: tiles dealt round-robin.
    const std::uint32_t tiles_x = width / tile;
    const std::uint32_t tiles_y = height / tile;
    const std::uint32_t num_tiles = tiles_x * tiles_y;
    tilesPerProcCap = num_tiles;
    qItems = SharedArray<std::uint32_t>(
        cluster, static_cast<std::uint64_t>(np) * tilesPerProcCap, page);
    qHead = SharedArray<std::uint32_t>(cluster, np, page);
    qTail = SharedArray<std::uint32_t>(cluster, np, page);
    std::vector<std::uint32_t> counts(np, 0);
    for (std::uint32_t i = 0; i < num_tiles; ++i) {
        const int p = static_cast<int>(i) % np;
        qItems.init(cluster,
                    static_cast<std::uint64_t>(p) * tilesPerProcCap +
                        counts[p],
                    i);
        ++counts[p];
    }
    initFill(cluster, qHead, 0u);
    qTail.initRange(cluster, 0, np, counts.data());
    qLocks.resize(np);
    for (auto &l : qLocks)
        l = cluster.allocLock();
    bar = cluster.allocBarrier();
}

namespace
{

/** Shared-memory scene accessor (the simulated data path). */
struct SimReader
{
    Thread &t;
    const SharedArray<double> &sx, &sy, &sz, &sr;
    const SharedArray<std::uint32_t> &color_, &mirror_;
    const SharedArray<std::uint32_t> &gcount, &glist;

    double sphereX(std::uint32_t s) { return sx.get(t, s); }
    double sphereY(std::uint32_t s) { return sy.get(t, s); }
    double sphereZ(std::uint32_t s) { return sz.get(t, s); }
    double sphereR(std::uint32_t s) { return sr.get(t, s); }
    std::uint32_t color(std::uint32_t s) { return color_.get(t, s); }
    bool mirror(std::uint32_t s) { return mirror_.get(t, s) != 0; }
    std::uint32_t gridCount(std::uint32_t c) { return gcount.get(t, c); }
    std::uint32_t gridItem(std::uint64_t k) { return glist.get(t, k); }
    void charge(Cycles c) { t.compute(c); }
};

/** Native accessor (setup data; the verification path). */
struct RefReader
{
    const RaytraceWorkload *unused = nullptr;
    const std::vector<double> &sx, &sy, &sz, &sr;
    const std::vector<std::uint32_t> &color_;
    const std::vector<std::uint8_t> &mirror_;
    const std::vector<std::uint32_t> &gcount;
    const std::vector<std::uint32_t> &glist;

    double sphereX(std::uint32_t s) { return sx[s]; }
    double sphereY(std::uint32_t s) { return sy[s]; }
    double sphereZ(std::uint32_t s) { return sz[s]; }
    double sphereR(std::uint32_t s) { return sr[s]; }
    std::uint32_t color(std::uint32_t s) { return color_[s]; }
    bool mirror(std::uint32_t s) { return mirror_[s] != 0; }
    std::uint32_t gridCount(std::uint32_t c) { return gcount[c]; }
    std::uint32_t gridItem(std::uint64_t k) { return glist[k]; }
    void charge(Cycles) {}
};

} // namespace

void
RaytraceWorkload::body(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    SimReader rd{t,      sx,     sy,        sz,      sr,
                 scolor, smirror, gridCount, gridList};
    RayTracer<SimReader> tracer(rd, gridDim, maxPerCell);
    const std::uint32_t tiles_x = width / tile;

    for (;;) {
        std::int64_t tile_id = -1;
        // Pop from our own queue head...
        t.acquire(qLocks[me]);
        {
            const std::uint32_t h = qHead.get(t, me);
            const std::uint32_t tl = qTail.get(t, me);
            if (h < tl) {
                tile_id = qItems.get(
                    t,
                    static_cast<std::uint64_t>(me) * tilesPerProcCap + h);
                qHead.put(t, me, h + 1);
            }
        }
        t.release(qLocks[me]);

        // ...or steal from a victim's tail.
        for (int k = 1; k < np && tile_id < 0; ++k) {
            const int v = (me + k) % np;
            t.acquire(qLocks[v]);
            const std::uint32_t h = qHead.get(t, v);
            const std::uint32_t tl = qTail.get(t, v);
            if (h < tl) {
                tile_id = qItems.get(
                    t,
                    static_cast<std::uint64_t>(v) * tilesPerProcCap + tl -
                        1);
                qTail.put(t, v, tl - 1);
            }
            t.release(qLocks[v]);
        }
        if (tile_id < 0)
            break;

        const std::uint32_t tx =
            static_cast<std::uint32_t>(tile_id) % tiles_x;
        const std::uint32_t ty =
            static_cast<std::uint32_t>(tile_id) / tiles_x;
        for (std::uint32_t y = ty * tile; y < (ty + 1) * tile; ++y) {
            for (std::uint32_t x = tx * tile; x < (tx + 1) * tile; ++x) {
                const std::uint32_t rgb =
                    tracer.pixel(x, y, width, height);
                image.put(t, static_cast<std::uint64_t>(y) * width + x,
                          rgb);
            }
        }
    }
    t.barrier(bar);
}

bool
RaytraceWorkload::verify(Cluster &cluster)
{
    RefReader rd{nullptr,        scene.sx,    scene.sy,
                 scene.sz,       scene.sr,    scene.color,
                 scene.mirror,   scene.gridCount, scene.gridList};
    RayTracer<RefReader> tracer(rd, gridDim, maxPerCell);
    return checkElements(
        cluster, image, static_cast<std::uint64_t>(width) * height,
        [&](std::uint64_t i, std::uint32_t got) {
            const auto x = static_cast<std::uint32_t>(i % width);
            const auto y = static_cast<std::uint32_t>(i / width);
            const std::uint32_t want = tracer.pixel(x, y, width, height);
            if (got != want) {
                SWSM_WARN("raytrace mismatch at (%u,%u): %08x vs %08x", x,
                          y, got, want);
                return false;
            }
            return true;
        });
}

} // namespace swsm
