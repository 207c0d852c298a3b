#include "simd.hh"

namespace swsm::simd
{

Level
activeLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    static const Level level =
        __builtin_cpu_supports("avx2") ? Level::Avx2 : Level::Scalar;
    return level;
#else
    return Level::Scalar;
#endif
}

const char *
levelName(Level level)
{
    return level == Level::Avx2 ? "avx2" : "scalar";
}

} // namespace swsm::simd
