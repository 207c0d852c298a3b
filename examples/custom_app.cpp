/**
 * @file
 * Writing your own application against the public API.
 *
 * A small SPMD histogram program: threads read a shared input array,
 * accumulate private histograms, merge them under locks, and check the
 * result — demonstrating shared allocation with home placement, typed
 * shared arrays, compute charging, locks and barriers.
 *
 * The program is run twice — once under page-based HLRC and once under
 * fine-grained SC — and the two simulations execute concurrently
 * through parallelFor (each Cluster is confined to one worker thread),
 * the executor the sweep runner uses, called directly for custom
 * experiments.
 *
 *   ./build/examples/custom_app [--jobs=N]
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "harness/sweep.hh"
#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "sim/env.hh"
#include "sim/rng.hh"

namespace
{

struct HistogramResult
{
    swsm::Cycles totalCycles = 0;
    std::uint64_t netMessages = 0;
    bool ok = false;
};

HistogramResult
runHistogram(swsm::ProtocolKind protocol)
{
    using namespace swsm;

    MachineParams mp;
    mp.numProcs = 8;
    mp.protocol = protocol;

    Cluster cluster(mp);

    constexpr std::uint64_t n = 64 * 1024;
    constexpr int buckets = 32;

    // Shared input, block-distributed across the nodes' homes.
    SharedArray<std::uint32_t> input(cluster, n,
                                     cluster.params().pageBytes);
    for (int p = 0; p < mp.numProcs; ++p) {
        const std::uint64_t per = n / mp.numProcs;
        cluster.space().setRangeHome(input.addr(p * per),
                                     per * sizeof(std::uint32_t), p);
    }
    SharedArray<std::uint64_t> histogram(cluster, buckets);

    Rng rng(7);
    std::vector<std::uint64_t> expect(buckets, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto v = static_cast<std::uint32_t>(rng.nextBounded(1000));
        input.init(cluster, i, v);
        ++expect[v % buckets];
    }
    for (int b = 0; b < buckets; ++b)
        histogram.init(cluster, b, 0);

    const BarrierId bar = cluster.allocBarrier();
    std::vector<LockId> locks(buckets);
    for (auto &l : locks)
        l = cluster.allocLock();

    cluster.run([&](Thread &t) {
        // 1. Private histogram over my block (bulk shared reads).
        const std::uint64_t per = n / t.nprocs();
        std::vector<std::uint32_t> mine(per);
        input.read(t, t.id() * per, per, mine.data());
        std::vector<std::uint64_t> local(buckets, 0);
        for (const std::uint32_t v : mine)
            ++local[v % buckets];
        t.compute(2 * per); // ~2 cycles per element

        // 2. Merge under per-bucket locks.
        for (int b = 0; b < buckets; ++b) {
            if (local[b] == 0)
                continue;
            t.acquire(locks[b]);
            histogram.put(t, b, histogram.get(t, b) + local[b]);
            t.release(locks[b]);
        }
        t.barrier(bar);
    });

    HistogramResult res;
    res.ok = true;
    for (int b = 0; b < buckets; ++b)
        res.ok &= histogram.peek(cluster, b) == expect[b];
    res.totalCycles = cluster.stats().totalCycles;
    res.netMessages = cluster.stats().metrics.counter("net.messages");
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swsm;

    int jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) != 0 ||
            !parseBoundedInt(argv[i] + 7, 1, maxJobs, jobs)) {
            std::fprintf(stderr,
                         "usage: %s [--jobs=N]  (N an integer in [1, %d])\n",
                         argv[0], maxJobs);
            return 1;
        }
    }

    const ProtocolKind protocols[] = {ProtocolKind::Hlrc,
                                      ProtocolKind::Sc};
    HistogramResult results[2];

    // Both simulations are independent (one Cluster each, confined to
    // its worker thread), so they can run concurrently.
    parallelFor(jobs, 2, [&](std::size_t i) {
        results[i] = runHistogram(protocols[i]);
    });

    bool ok = true;
    for (int i = 0; i < 2; ++i) {
        const HistogramResult &r = results[i];
        std::printf("histogram on 8-node %s cluster: %.2f Mcycles, "
                    "%llu messages, result %s\n",
                    protocolKindName(protocols[i]), r.totalCycles / 1e6,
                    static_cast<unsigned long long>(r.netMessages),
                    r.ok ? "correct" : "WRONG");
        ok &= r.ok;
    }
    return ok ? 0 : 1;
}
