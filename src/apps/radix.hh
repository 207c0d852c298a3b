/**
 * @file
 * SPLASH-2-style parallel radix sort (the paper's "Radix", 1M keys).
 *
 * Keys are sorted digit by digit (8-bit digits). Per pass: each
 * processor histograms its block of the source array (private), posts
 * its histogram in shared memory, and after a barrier computes global
 * rank offsets; then it permutes its keys into the destination array.
 *
 *  - Original ("radix"): each key is written directly to its global
 *    destination. Ranks interleave processors' runs at fine grain, so
 *    many processors write the same destination pages concurrently —
 *    the page-level false-sharing storm that makes Radix the worst SVM
 *    application in the paper.
 *
 *  - Radix-Local ("radix-local", restructured): keys are first staged
 *    into a processor-local shared buffer (local writes), and after a
 *    barrier each *owner* bulk-reads the runs destined for its block —
 *    remote access becomes coarse-grained ("writing to a local buffer
 *    first", the paper's restructuring (i)).
 *
 * Verified key by key against an LSD radix sort of the input keys
 * (radixSort in apps/app_util.hh; exact).
 */

#ifndef SWSM_APPS_RADIX_HH
#define SWSM_APPS_RADIX_HH

#include <vector>

#include "apps/app_util.hh"
#include "apps/workload.hh"
#include "machine/shared_array.hh"

namespace swsm
{

/** Parallel radix sort workload (original or restructured). */
class RadixWorkload : public Workload
{
  public:
    RadixWorkload(SizeClass size, bool local_buffers);

    const char *
    name() const override
    {
        return localBuffers ? "radix-local" : "radix";
    }
    void setup(Cluster &cluster) override;
    void body(Thread &t) override;
    bool verify(Cluster &cluster) override;

  private:
    static constexpr std::uint32_t radixBits = 8;
    static constexpr std::uint32_t buckets = 1u << radixBits;
    static constexpr std::uint32_t passes = 32 / radixBits;

    std::uint64_t nkeys = 0;
    bool localBuffers = false;

    SharedArray<std::uint32_t> a;    ///< ping buffer
    SharedArray<std::uint32_t> b;    ///< pong buffer
    SharedArray<std::uint32_t> hist; ///< per-proc histograms (P x 256)
    SharedArray<std::uint32_t> stage;///< staging space (radix-local)
    BarrierId bar = 0;

    /**
     * The unsorted keys, drawn from a fixed seed. setup() writes them
     * and verify() draws them again, so no copy lives through the run.
     */
    std::vector<std::uint32_t> inputKeys() const;
};

} // namespace swsm

#endif // SWSM_APPS_RADIX_HH
