/**
 * @file
 * SPLASH-2-style six-step 1D FFT (the paper's "FFT", 1M points).
 *
 * n = m*m complex points, viewed as an m x m row-major matrix that is
 * row-partitioned across processors with per-owner page homes. The
 * six-step transform — transpose, per-row m-point FFTs, twiddle scale,
 * transpose, per-row FFTs, transpose — reproduces the paper's sharing
 * pattern: coarse-grained, single-writer, all-to-all communication in
 * the transposes, no locks. Output is verified against an independent
 * full-size radix-2 reference FFT.
 */

#ifndef SWSM_APPS_FFT_HH
#define SWSM_APPS_FFT_HH

#include <vector>

#include "apps/app_util.hh"
#include "apps/workload.hh"
#include "machine/shared_array.hh"

namespace swsm
{

/** Six-step FFT workload. */
class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(SizeClass size);

    const char *name() const override { return "fft"; }
    void setup(Cluster &cluster) override;
    void body(Thread &t) override;
    bool verify(Cluster &cluster) override;

    /** Total points n = m*m. */
    std::uint64_t points() const { return m * m; }

  private:
    /** Transpose @p src into @p dst (threads own dst row blocks). */
    void transpose(Thread &t, const SharedArray<Complex> &src,
                   const SharedArray<Complex> &dst);
    /** m-point FFT over each locally owned row of @p arr. */
    void rowFfts(Thread &t, const SharedArray<Complex> &arr);
    /** Twiddle scaling of locally owned rows. */
    void twiddle(Thread &t, const SharedArray<Complex> &arr);

    std::uint64_t m = 0;
    SharedArray<Complex> x;     ///< input / final output
    SharedArray<Complex> trans; ///< transpose scratch
    BarrierId bar = 0;

    /**
     * The input points, drawn from a fixed seed. setup() writes them
     * and verify() transforms a fresh draw in place, so no copy lives
     * through the run.
     */
    std::vector<Complex> inputPoints() const;
};

} // namespace swsm

#endif // SWSM_APPS_FFT_HH
