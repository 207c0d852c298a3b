#include "volrend.hh"

#include <cmath>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

namespace
{

constexpr float isoThreshold = 0.25f;
constexpr double earlyExitOpacity = 0.95;

/**
 * Ray casting core, templated over the volume accessor so the
 * simulated and reference paths share the arithmetic.
 */
template <typename Reader>
std::uint32_t
castRay(Reader &rd, std::uint32_t x, std::uint32_t y,
        std::uint32_t vol_dim, std::uint32_t macro_dim)
{
    const std::uint32_t macros = (vol_dim + macro_dim - 1) / macro_dim;
    double acc = 0.0;
    double lum = 0.0;
    std::uint32_t z = 0;
    while (z < vol_dim) {
        // Empty-space skip through the min/max macro grid.
        const std::uint32_t mc =
            ((x / macro_dim) * macros + (y / macro_dim)) * macros +
            z / macro_dim;
        rd.charge(20);
        if (rd.macroMax(mc) < isoThreshold) {
            z = (z / macro_dim + 1) * macro_dim;
            continue;
        }
        const std::uint32_t zend =
            std::min(vol_dim, (z / macro_dim + 1) * macro_dim);
        for (; z < zend; ++z) {
            const float sigma = rd.voxel(
                (static_cast<std::uint64_t>(x) * vol_dim + y) * vol_dim +
                z);
            rd.charge(60);
            if (sigma < isoThreshold)
                continue;
            const double alpha =
                std::min(1.0, (sigma - isoThreshold) * 2.0);
            // Depth-cued front-to-back compositing.
            const double shade =
                1.0 - 0.7 * static_cast<double>(z) / vol_dim;
            lum += (1.0 - acc) * alpha * shade;
            acc += (1.0 - acc) * alpha;
            if (acc > earlyExitOpacity) {
                z = vol_dim;
                break;
            }
        }
    }
    const auto v = static_cast<std::uint32_t>(
        std::min(255.0, std::max(0.0, lum * 255.0)));
    return (v << 16) | (v << 8) | v;
}

} // namespace

VolrendWorkload::VolrendWorkload(SizeClass size, bool restructured)
    : restructured(restructured)
{
    switch (size) {
      case SizeClass::Tiny:
        volDim = 32;
        width = 32;
        break;
      case SizeClass::Small:
        volDim = 64;
        width = 128;
        break;
      case SizeClass::Medium:
        volDim = 96;
        width = 192;
        break;
      case SizeClass::Paper:
        volDim = 128; // half the edge of the paper's 256^3 head
        width = 256;
        break;
    }
    tile = restructured ? 8 : 4;
}

std::uint64_t
VolrendWorkload::pixelIndex(std::uint32_t x, std::uint32_t y) const
{
    if (!restructured)
        return static_cast<std::uint64_t>(y) * width + x;
    // Tile-blocked layout: a tile's pixels are contiguous.
    const std::uint32_t tiles_x = width / tile;
    const std::uint32_t tid = (y / tile) * tiles_x + x / tile;
    return static_cast<std::uint64_t>(tid) * tile * tile +
           (y % tile) * tile + (x % tile);
}

void
VolrendWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    const std::uint32_t page = cluster.params().pageBytes;

    // Procedural volume: a few dense blobs clustered toward one image
    // corner (so naive band assignment is badly imbalanced).
    struct Blob
    {
        double x, y, z, sigma, amp;
    };
    const Blob blobs[4] = {
        {0.25, 0.25, 0.4, 0.12, 1.2},
        {0.3, 0.45, 0.6, 0.10, 1.0},
        {0.45, 0.3, 0.5, 0.15, 0.9},
        {0.75, 0.7, 0.5, 0.06, 0.8},
    };
    const std::uint64_t voxels =
        static_cast<std::uint64_t>(volDim) * volDim * volDim;
    volume.resize(voxels);
    for (std::uint32_t x = 0; x < volDim; ++x) {
        for (std::uint32_t y = 0; y < volDim; ++y) {
            for (std::uint32_t z = 0; z < volDim; ++z) {
                const double fx = (x + 0.5) / volDim;
                const double fy = (y + 0.5) / volDim;
                const double fz = (z + 0.5) / volDim;
                double v = 0.0;
                for (const Blob &b : blobs) {
                    const double d2 = (fx - b.x) * (fx - b.x) +
                        (fy - b.y) * (fy - b.y) + (fz - b.z) * (fz - b.z);
                    v += b.amp *
                         std::exp(-d2 / (2.0 * b.sigma * b.sigma));
                }
                volume[(static_cast<std::uint64_t>(x) * volDim + y) *
                           volDim +
                       z] = static_cast<float>(v);
            }
        }
    }

    // Min/max macro grid (max only; min unused by this transfer func).
    const std::uint32_t macros = (volDim + macroDim - 1) / macroDim;
    macroMax.assign(static_cast<std::size_t>(macros) * macros * macros,
                    0.0f);
    for (std::uint32_t x = 0; x < volDim; ++x) {
        for (std::uint32_t y = 0; y < volDim; ++y) {
            for (std::uint32_t z = 0; z < volDim; ++z) {
                const std::size_t mc =
                    ((x / macroDim) * macros + (y / macroDim)) * macros +
                    z / macroDim;
                macroMax[mc] = std::max(
                    macroMax[mc],
                    volume[(static_cast<std::uint64_t>(x) * volDim + y) *
                               volDim +
                           z]);
            }
        }
    }

    vol = SharedArray<float>(cluster, voxels, page);
    macro = SharedArray<float>(cluster, macroMax.size(), page);
    image = SharedArray<std::uint32_t>(
        cluster, static_cast<std::uint64_t>(width) * width, page);
    vol.initRange(cluster, 0, voxels, volume.data());
    macro.initRange(cluster, 0, macroMax.size(), macroMax.data());

    // Task queues.
    const std::uint32_t tiles_x = width / tile;
    const std::uint32_t num_tiles = tiles_x * tiles_x;
    tilesPerProcCap = num_tiles;
    qItems = SharedArray<std::uint32_t>(
        cluster, static_cast<std::uint64_t>(np) * tilesPerProcCap, page);
    qHead = SharedArray<std::uint32_t>(cluster, np, page);
    qTail = SharedArray<std::uint32_t>(cluster, np, page);
    std::vector<std::uint32_t> counts(np, 0);
    for (std::uint32_t i = 0; i < num_tiles; ++i) {
        // Original: contiguous bands (imbalanced for clustered data).
        // Restructured: round-robin deal (cost-balancing assignment).
        const std::uint32_t band =
            std::max<std::uint32_t>(1, (num_tiles + np - 1) / np);
        const int p = restructured
            ? static_cast<int>(i % static_cast<std::uint32_t>(np))
            : static_cast<int>(std::min<std::uint32_t>(i / band, np - 1));
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

/** Shared-memory accessor. */
struct SimVolReader
{
    Thread &t;
    const SharedArray<float> &vol;
    const SharedArray<float> &macro;

    float voxel(std::uint64_t i) { return vol.get(t, i); }
    float macroMax(std::uint64_t i) { return macro.get(t, i); }
    void charge(Cycles c) { t.compute(c); }
};

/** Native accessor. */
struct RefVolReader
{
    const std::vector<float> &vol;
    const std::vector<float> &macro;

    float voxel(std::uint64_t i) { return vol[i]; }
    float macroMax(std::uint64_t i) { return macro[i]; }
    void charge(Cycles) {}
};

} // namespace

void
VolrendWorkload::body(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    SimVolReader rd{t, vol, macro};
    const std::uint32_t tiles_x = width / tile;

    for (;;) {
        std::int64_t tile_id = -1;
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
                    castRay(rd, x * volDim / width, y * volDim / width,
                            volDim, macroDim);
                image.put(t, pixelIndex(x, y), rgb);
            }
        }
    }
    t.barrier(bar);
}

bool
VolrendWorkload::verify(Cluster &cluster)
{
    RefVolReader rd{volume, macroMax};
    // A band of `tile` image rows is contiguous in both layouts: read
    // one band at a time, then check its pixels in row order.
    const std::uint64_t band = static_cast<std::uint64_t>(tile) * width;
    std::vector<std::uint32_t> pixels(band);
    for (std::uint32_t y = 0; y < width; ++y) {
        const std::uint64_t band_start = y / tile * band;
        if (y % tile == 0)
            image.peekRange(cluster, band_start, band, pixels.data());
        for (std::uint32_t x = 0; x < width; ++x) {
            const std::uint32_t want =
                castRay(rd, x * volDim / width, y * volDim / width,
                        volDim, macroDim);
            const std::uint32_t got =
                pixels[pixelIndex(x, y) - band_start];
            if (got != want) {
                SWSM_WARN("volrend mismatch at (%u,%u): %08x vs %08x", x,
                          y, got, want);
                return false;
            }
        }
    }
    return true;
}

} // namespace swsm
