/**
 * @file
 * The host CPU's SIMD level, as a descriptor for benchmark reports.
 *
 * Nothing in the simulator dispatches on it: HLRC's twin, diff and
 * apply work runs one portable path (proto/hlrc/diff.hh and
 * std::memcpy, which libc already vectorizes), and the paper charges
 * that work per word anyway. Reports name the level so a host-time
 * number says what hardware it came from.
 */

#ifndef SWSM_MEM_SIMD_HH
#define SWSM_MEM_SIMD_HH

namespace swsm::simd
{

/** Vector instruction tiers a host may offer. */
enum class Level
{
    Scalar, ///< no AVX2 (or not an x86 host)
    Avx2,   ///< x86 with AVX2
};

/** The host CPU's level (checked once per process). */
Level activeLevel();

/** "scalar" or "avx2". */
const char *levelName(Level level);

} // namespace swsm::simd

#endif // SWSM_MEM_SIMD_HH
