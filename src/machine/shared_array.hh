/**
 * @file
 * Typed shared array helpers over the global address space.
 *
 * SharedArray<T> owns a contiguous shared allocation of @c count
 * elements. Elements are padded to a power-of-two slot so that a single
 * element never straddles a coherence-unit boundary. Timed accesses go
 * through a Thread. Initialization and verification use the untimed
 * Cluster::initWrite/debugRead paths: init/peek move one element, and
 * initRange/peekRange move [first, first+n) as one call when elements
 * fill their slots (element by element otherwise, so padding bytes are
 * never written), the way the timed read/write move ranges.
 */

#ifndef SWSM_MACHINE_SHARED_ARRAY_HH
#define SWSM_MACHINE_SHARED_ARRAY_HH

#include <cstdint>

#include "machine/cluster.hh"
#include "machine/thread.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace swsm
{

/** Smallest power of two >= v. */
constexpr std::uint64_t
nextPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** A shared, typed, bounds-checked array in the global address space. */
template <typename T>
class SharedArray
{
  public:
    static_assert(std::is_trivially_copyable_v<T>,
                  "shared elements must be trivially copyable");

    SharedArray() = default;

    /**
     * Allocate @p count elements with round-robin page homes.
     * @param align allocation alignment (defaults to the element slot;
     *        pass the page size when page-aligned home placement of
     *        sub-ranges will follow)
     */
    SharedArray(Cluster &cluster, std::uint64_t count,
                std::uint64_t align = 0)
        : count_(count), slot(nextPow2(sizeof(T)))
    {
        base_ = cluster.alloc(count * slot, align ? align : slot);
    }

    /** Allocate @p count elements in pages homed entirely at @p home. */
    static SharedArray
    homedAt(Cluster &cluster, std::uint64_t count, NodeId home)
    {
        SharedArray a;
        a.count_ = count;
        a.slot = nextPow2(sizeof(T));
        a.base_ = cluster.allocAt(count * a.slot, home);
        return a;
    }

    std::uint64_t size() const { return count_; }
    GlobalAddr base() const { return base_; }
    /** Bytes per element slot (power of two >= sizeof(T)). */
    std::uint64_t slotBytes() const { return slot; }

    /** Address of element @p i. */
    GlobalAddr
    addr(std::uint64_t i) const
    {
#ifndef NDEBUG
        if (i >= count_)
            SWSM_PANIC("shared array index %llu out of range",
                       static_cast<unsigned long long>(i));
#endif
        return base_ + i * slot;
    }

    /** Timed read of element @p i. */
    T get(Thread &t, std::uint64_t i) const { return t.get<T>(addr(i)); }

    /** Timed write of element @p i. */
    void
    put(Thread &t, std::uint64_t i, const T &v) const
    {
        t.put<T>(addr(i), v);
    }

    /** Timed bulk read of elements [first, first+n). */
    void
    read(Thread &t, std::uint64_t first, std::uint64_t n, T *out) const
    {
        if (slot == sizeof(T)) {
            t.readBytes(addr(first), out, n * sizeof(T));
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                out[i] = get(t, first + i);
        }
    }

    /** Timed bulk write of elements [first, first+n). */
    void
    write(Thread &t, std::uint64_t first, std::uint64_t n,
          const T *in) const
    {
        if (slot == sizeof(T)) {
            t.writeBytes(addr(first), in, n * sizeof(T));
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                put(t, first + i, in[i]);
        }
    }

    /** Untimed initialization of element @p i (before run()). */
    void
    init(Cluster &cluster, std::uint64_t i, const T &v) const
    {
        cluster.initWrite(addr(i), &v, sizeof(T));
    }

    /** Untimed, consistent read of element @p i (after run()). */
    T
    peek(Cluster &cluster, std::uint64_t i) const
    {
        T v;
        cluster.debugRead(addr(i), &v, sizeof(T));
        return v;
    }

    /** Untimed initialization of elements [first, first+n) (before run()). */
    void
    initRange(Cluster &cluster, std::uint64_t first, std::uint64_t n,
              const T *src) const
    {
        const GlobalAddr at = rangeAddr(first, n);
        if (slot == sizeof(T)) {
            cluster.initWrite(at, src, n * sizeof(T));
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                cluster.initWrite(at + i * slot, &src[i], sizeof(T));
        }
    }

    /** Untimed, consistent read of elements [first, first+n) (after run()). */
    void
    peekRange(Cluster &cluster, std::uint64_t first, std::uint64_t n,
              T *out) const
    {
        const GlobalAddr at = rangeAddr(first, n);
        if (slot == sizeof(T)) {
            cluster.debugRead(at, out, n * sizeof(T));
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                cluster.debugRead(at + i * slot, &out[i], sizeof(T));
        }
    }

  private:
    /** Address of element @p first; FatalError unless [first, first+n)
     *  lies inside the array. */
    GlobalAddr
    rangeAddr(std::uint64_t first, std::uint64_t n) const
    {
        if (first > count_ || n > count_ - first)
            SWSM_FATAL("elements [%llu, +%llu) lie outside a %llu-element "
                       "shared array",
                       static_cast<unsigned long long>(first),
                       static_cast<unsigned long long>(n),
                       static_cast<unsigned long long>(count_));
        return base_ + first * slot;
    }

    GlobalAddr base_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t slot = 0;
};

} // namespace swsm

#endif // SWSM_MACHINE_SHARED_ARRAY_HH
