#include "radix.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace swsm
{

RadixWorkload::RadixWorkload(SizeClass size, bool local_buffers)
    : localBuffers(local_buffers)
{
    switch (size) {
      case SizeClass::Tiny:
        nkeys = 8 * 1024;
        break;
      case SizeClass::Small:
        nkeys = 128 * 1024;
        break;
      case SizeClass::Medium:
        nkeys = 512 * 1024;
        break;
      case SizeClass::Paper:
        nkeys = 1024 * 1024; // the paper's 1 M keys
        break;
    }
}

void
RadixWorkload::setup(Cluster &cluster)
{
    const int np = cluster.numProcs();
    const std::uint32_t page = cluster.params().pageBytes;
    a = SharedArray<std::uint32_t>(cluster, nkeys, page);
    b = SharedArray<std::uint32_t>(cluster, nkeys, page);
    hist = SharedArray<std::uint32_t>(cluster,
                                      static_cast<std::uint64_t>(np) *
                                          buckets,
                                      page);
    if (localBuffers)
        stage = SharedArray<std::uint32_t>(cluster, nkeys, page);
    bar = cluster.allocBarrier();

    for (int p = 0; p < np; ++p) {
        const Range blk = blockRange(nkeys, np, p);
        const std::uint64_t bytes = blk.size() * sizeof(std::uint32_t);
        cluster.space().setRangeHome(a.addr(blk.begin), bytes, p);
        cluster.space().setRangeHome(b.addr(blk.begin), bytes, p);
        if (localBuffers)
            cluster.space().setRangeHome(stage.addr(blk.begin), bytes, p);
        cluster.space().setRangeHome(
            hist.addr(static_cast<std::uint64_t>(p) * buckets),
            buckets * sizeof(std::uint32_t), p);
    }

    const std::vector<std::uint32_t> keys = inputKeys();
    a.initRange(cluster, 0, nkeys, keys.data());
}

std::vector<std::uint32_t>
RadixWorkload::inputKeys() const
{
    Rng rng(2024);
    std::vector<std::uint32_t> keys(nkeys);
    for (std::uint32_t &k : keys)
        k = static_cast<std::uint32_t>(rng.next64());
    return keys;
}

void
RadixWorkload::body(Thread &t)
{
    const int me = t.id();
    const int np = t.nprocs();
    const Range blk = blockRange(nkeys, np, me);
    std::vector<std::uint32_t> keys(blk.size());
    std::vector<std::uint32_t> all_hist(
        static_cast<std::size_t>(np) * buckets);

    const SharedArray<std::uint32_t> *src = &a;
    const SharedArray<std::uint32_t> *dst = &b;

    for (std::uint32_t pass = 0; pass < passes; ++pass) {
        const std::uint32_t shift = pass * radixBits;

        // 1. Private histogram of my (fixed) block of the source.
        src->read(t, blk.begin, blk.size(), keys.data());
        std::vector<std::uint32_t> cnt(buckets, 0);
        for (const std::uint32_t k : keys)
            ++cnt[(k >> shift) & (buckets - 1)];
        t.compute(2 * blk.size());

        // 2. Publish it and wait for everyone.
        hist.write(t, static_cast<std::uint64_t>(me) * buckets, buckets,
                   cnt.data());
        t.barrier(bar);

        // 3. Global rank offsets from all histograms.
        hist.read(t, 0, static_cast<std::uint64_t>(np) * buckets,
                  all_hist.data());
        t.compute(static_cast<Cycles>(np) * buckets);
        std::vector<std::uint64_t> digit_base(buckets + 1, 0);
        for (std::uint32_t d = 0; d < buckets; ++d) {
            std::uint64_t total = 0;
            for (int q = 0; q < np; ++q)
                total += all_hist[static_cast<std::size_t>(q) * buckets +
                                  d];
            digit_base[d + 1] = digit_base[d] + total;
        }
        // Start offset of (digit d, proc q)'s run.
        auto run_off = [&](std::uint32_t d, int q) {
            std::uint64_t off = digit_base[d];
            for (int q2 = 0; q2 < q; ++q2)
                off += all_hist[static_cast<std::size_t>(q2) * buckets +
                                d];
            return off;
        };

        if (!localBuffers) {
            // 4a. Original: write every key straight to its global
            // rank — fine-grained scattered remote writes with heavy
            // page-level false sharing.
            std::vector<std::uint64_t> next(buckets);
            for (std::uint32_t d = 0; d < buckets; ++d)
                next[d] = run_off(d, me);
            for (const std::uint32_t k : keys) {
                const std::uint32_t d = (k >> shift) & (buckets - 1);
                dst->put(t, next[d]++, k);
            }
            t.compute(2 * blk.size());
            t.barrier(bar);
        } else {
            // 4b. Restructured: stage my keys grouped by digit in my
            // local staging block, then let each destination owner
            // bulk-read the runs that land in its block.
            std::vector<std::uint64_t> stage_off(buckets + 1, 0);
            for (std::uint32_t d = 0; d < buckets; ++d)
                stage_off[d + 1] = stage_off[d] + cnt[d];
            std::vector<std::uint32_t> grouped(blk.size());
            {
                std::vector<std::uint64_t> cursor(stage_off.begin(),
                                                  stage_off.end() - 1);
                for (const std::uint32_t k : keys) {
                    const std::uint32_t d = (k >> shift) & (buckets - 1);
                    grouped[cursor[d]++] = k;
                }
            }
            t.compute(3 * blk.size());
            stage.write(t, blk.begin, blk.size(), grouped.data());
            t.barrier(bar);

            // Gather phase: pull every (proc, digit) run overlapping my
            // destination block with coarse-grained reads.
            std::vector<std::uint32_t> out(blk.size());
            std::vector<std::uint32_t> run(blk.size());
            for (int q = 0; q < np; ++q) {
                const Range qblk = blockRange(nkeys, np, q);
                std::uint64_t qstage = qblk.begin;
                for (std::uint32_t d = 0; d < buckets; ++d) {
                    const std::uint64_t c =
                        all_hist[static_cast<std::size_t>(q) * buckets +
                                 d];
                    if (c == 0)
                        continue;
                    const std::uint64_t off = run_off(d, q);
                    const std::uint64_t lo =
                        std::max<std::uint64_t>(off, blk.begin);
                    const std::uint64_t hi =
                        std::min<std::uint64_t>(off + c, blk.end);
                    if (lo < hi) {
                        stage.read(t, qstage + (lo - off), hi - lo,
                                   run.data());
                        std::copy(run.begin(),
                                  run.begin() +
                                      static_cast<std::ptrdiff_t>(hi -
                                                                  lo),
                                  out.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          lo - blk.begin));
                    }
                    qstage += c;
                }
            }
            dst->write(t, blk.begin, blk.size(), out.data());
            t.compute(2 * blk.size());
            t.barrier(bar);
        }
        std::swap(src, dst);
    }
}

bool
RadixWorkload::verify(Cluster &cluster)
{
    std::vector<std::uint32_t> expect = inputKeys();
    radixSort(expect);
    // passes is even, so the final result is back in `a`.
    static_assert(passes % 2 == 0);
    return checkElements(
        cluster, a, nkeys, [&](std::uint64_t i, std::uint32_t got) {
            if (got != expect[i]) {
                SWSM_WARN("radix mismatch at %llu: %u vs %u",
                          static_cast<unsigned long long>(i), got,
                          expect[i]);
                return false;
            }
            return true;
        });
}

} // namespace swsm
