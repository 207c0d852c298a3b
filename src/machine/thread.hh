/**
 * @file
 * The application-facing thread handle (SPMD programming model).
 *
 * Each simulated processor runs the application body with a Thread bound
 * to its node. Shared loads/stores, synchronization, and explicit
 * compute charges go through the Thread into the machine; everything
 * else in the body is ordinary C++ running natively (private data).
 */

#ifndef SWSM_MACHINE_THREAD_HH
#define SWSM_MACHINE_THREAD_HH

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "machine/cluster.hh"
#include "machine/fast_path.hh"
#include "machine/node.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace swsm
{

/** Handle through which application code drives one simulated CPU. */
class Thread
{
  public:
    Thread(Cluster &cluster, Node &node)
        : cluster_(cluster), node_(node),
          protocol_(cluster.protocol())
    {}

    /** This thread's processor id, in [0, nprocs()). */
    int id() const { return node_.node(); }
    /** Number of processors in the machine. */
    int nprocs() const { return cluster_.numProcs(); }
    /** Owning cluster. */
    Cluster &cluster() { return cluster_; }
    /** Current simulated time on this processor. */
    Cycles now() const { return node_.now(); }

    /**
     * Timed shared read of a trivially copyable value. Values up to a
     * power-of-two size 8 use the single-reference fast path; larger
     * or odd-sized types go through the bulk path. A fast-path TLB hit
     * resolves the access inline — no virtual dispatch, no page-table
     * lookup — while charging exactly what the protocol would.
     */
    template <typename T>
    T
    get(GlobalAddr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        if constexpr (sizeof(T) <= 8 &&
                      (sizeof(T) & (sizeof(T) - 1)) == 0) {
            if (FastPath *fp = node_.fastPathPtr()) {
                if (FastPath::Entry *e =
                        fp->lookup(addr, sizeof(T), false)) {
                    // Capture the resolved pointer before charging: a
                    // charge can quantum-yield into handlers, and the
                    // backing buffers outlive any entry eviction.
                    const std::uint8_t *p = e->data + (addr - e->base);
                    if (fp->copyFirst()) {
                        std::memcpy(&v, p, sizeof(T));
                        node_.chargeSharedAccess(addr, false);
                    } else {
                        node_.chargeSharedAccess(addr, false);
                        std::memcpy(&v, p, sizeof(T));
                    }
                    return v;
                }
            }
            protocol_.read(node_, addr, &v, sizeof(T));
        } else {
            readBytes(addr, &v, sizeof(T));
        }
        return v;
    }

    /** Timed shared write; the mirror of get(). */
    template <typename T>
    void
    put(GlobalAddr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if constexpr (sizeof(T) <= 8 &&
                      (sizeof(T) & (sizeof(T) - 1)) == 0) {
            if (FastPath *fp = node_.fastPathPtr()) {
                if (FastPath::Entry *e =
                        fp->lookup(addr, sizeof(T), true)) {
                    std::uint8_t *p = e->data + (addr - e->base);
                    if (e->dirtyMask) {
                        *e->dirtyMask |= FastPath::dirtyBits(
                            addr - e->base, sizeof(T), e->chunkShift);
                    }
                    if (fp->copyFirst()) {
                        std::memcpy(p, &v, sizeof(T));
                        node_.chargeSharedAccess(addr, true);
                    } else {
                        node_.chargeSharedAccess(addr, true);
                        std::memcpy(p, &v, sizeof(T));
                    }
                    return;
                }
            }
            protocol_.write(node_, addr, &v, sizeof(T));
        } else {
            writeBytes(addr, &v, sizeof(T));
        }
    }

    /**
     * Timed bulk read of an arbitrary extent. Whole in-page (or
     * in-block) runs resolve through one fast-path check each, with
     * the same per-chunk charge sequence as the protocol's range loop;
     * the first miss hands the remainder to the protocol, whose loop
     * chunks at the same boundaries.
     */
    void
    readBytes(GlobalAddr addr, void *dst, std::uint64_t bytes)
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        std::uint64_t done = 0;
        if (FastPath *fp = node_.fastPathPtr()) {
            while (done < bytes) {
                const GlobalAddr a = addr + done;
                FastPath::Entry *e = fp->lookup(a, 1, false);
                if (!e)
                    break;
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(bytes - done, e->limit - a);
                const std::uint8_t *p = e->data + (a - e->base);
                if (fp->copyFirst()) {
                    std::memcpy(out + done, p, chunk);
                    node_.charge((chunk + wordBytes - 1) / wordBytes,
                                 TimeBucket::Busy);
                    node_.chargeCacheRange(a, chunk, false,
                                           TimeBucket::StallLocal);
                } else {
                    node_.charge((chunk + wordBytes - 1) / wordBytes,
                                 TimeBucket::Busy);
                    node_.chargeCacheRange(a, chunk, false,
                                           TimeBucket::StallLocal);
                    std::memcpy(out + done, p, chunk);
                }
                done += chunk;
            }
        }
        if (done < bytes)
            protocol_.readRange(node_, addr + done, out + done,
                                bytes - done);
    }

    /** Timed bulk write of an arbitrary extent; see readBytes(). */
    void
    writeBytes(GlobalAddr addr, const void *src, std::uint64_t bytes)
    {
        const auto *in = static_cast<const std::uint8_t *>(src);
        std::uint64_t done = 0;
        if (FastPath *fp = node_.fastPathPtr()) {
            while (done < bytes) {
                const GlobalAddr a = addr + done;
                FastPath::Entry *e = fp->lookup(a, 1, true);
                if (!e)
                    break;
                const std::uint64_t chunk =
                    std::min<std::uint64_t>(bytes - done, e->limit - a);
                std::uint8_t *p = e->data + (a - e->base);
                if (e->dirtyMask) {
                    *e->dirtyMask |= FastPath::dirtyBits(
                        a - e->base, chunk, e->chunkShift);
                }
                if (fp->copyFirst()) {
                    std::memcpy(p, in + done, chunk);
                    node_.charge((chunk + wordBytes - 1) / wordBytes,
                                 TimeBucket::Busy);
                    node_.chargeCacheRange(a, chunk, true,
                                           TimeBucket::StallLocal);
                } else {
                    node_.charge((chunk + wordBytes - 1) / wordBytes,
                                 TimeBucket::Busy);
                    node_.chargeCacheRange(a, chunk, true,
                                           TimeBucket::StallLocal);
                    std::memcpy(p, in + done, chunk);
                }
                done += chunk;
            }
        }
        if (done < bytes)
            protocol_.writeRange(node_, addr + done, in + done,
                                 bytes - done);
    }

    /**
     * Charge @p cycles of private computation (1-IPC busy time).
     * Split into quantum-sized slices so the node keeps polling for
     * incoming protocol requests, as instrumented code would.
     */
    void compute(Cycles cycles);

    /**
     * Acquire a lock (blocking). Lock and barrier ids must come from
     * the cluster's allocLock()/allocBarrier(); any other id throws
     * FatalError (rethrown by Cluster::run).
     */
    void
    acquire(LockId lock)
    {
        checkAllocated("lock", lock, cluster_.numLocks());
        protocol_.acquire(node_, lock);
    }
    /** Release a lock. */
    void
    release(LockId lock)
    {
        checkAllocated("lock", lock, cluster_.numLocks());
        protocol_.release(node_, lock);
    }
    /** Wait at a barrier until all nprocs() threads arrive. */
    void
    barrier(BarrierId b)
    {
        checkAllocated("barrier", b, cluster_.numBarriers());
        protocol_.barrier(node_, b);
    }

    /** Deterministic per-thread random stream. */
    Rng &rng() { return node_.rng(); }

  private:
    /** Throw FatalError unless @p id is in [0, @p count). */
    static void
    checkAllocated(const char *what, int id, int count)
    {
        if (id < 0 || id >= count)
            unallocated(what, id, count);
    }
    [[noreturn]] static void unallocated(const char *what, int id,
                                         int count);

    Cluster &cluster_;
    Node &node_;
    Protocol &protocol_;
};

} // namespace swsm

#endif // SWSM_MACHINE_THREAD_HH
