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
#include "machine/node.hh"
#include "proto/access_table.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace swsm
{

/** Handle through which application code drives one simulated CPU. */
class Thread
{
  public:
    /** @pre the protocol's tables are sized (Cluster::run). */
    Thread(Cluster &cluster, Node &node)
        : cluster_(cluster), node_(node),
          protocol_(cluster.protocol()),
          table_(cluster.params().fastPath
                     ? &protocol_.accessTable(node.node())
                     : nullptr),
          accessCheck_(cluster.params().accessCheckCycles)
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
     * Timed shared read of a trivially copyable value. A value up to a
     * power-of-two size 8 is one reference: its access check charged
     * (SC's optional software check), then copied inline if the node's
     * access table grants it (no virtual dispatch), else through
     * Protocol::load, then charged once. A reference must not
     * straddle a coherence unit (page, or SC block): that is fatal;
     * use readBytes. Nor may it reach past the shared space's extent:
     * that is fatal too. Larger or odd-sized types go through
     * readBytes.
     */
    template <typename T>
    T
    get(GlobalAddr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        if constexpr (isReference<T>) {
            chargeCheck();
            if (const std::uint8_t *p = hit(addr, sizeof(T), false))
                std::memcpy(&v, p, sizeof(T));
            else
                v = loadReference<T>(addr);
            node_.chargeSharedAccess(addr, false);
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
        if constexpr (isReference<T>) {
            chargeCheck();
            if (std::uint8_t *p = hit(addr, sizeof(T), true))
                std::memcpy(p, &v, sizeof(T));
            else
                storeReference<T>(addr, v);
            node_.chargeSharedAccess(addr, true);
        } else {
            writeBytes(addr, &v, sizeof(T));
        }
    }

    /**
     * Timed bulk read of an arbitrary extent, one coherence unit at a
     * time: each unit's access check is charged, then the unit is
     * copied, then charged one Busy cycle per word plus its cache walk.
     * Units resolve inline until the first miss; that unit and every
     * later one go to Protocol::load without a lookup.
     */
    void
    readBytes(GlobalAddr addr, void *dst, std::uint64_t bytes)
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        bool check_inline = true;
        for (std::uint64_t done = 0; done < bytes;) {
            const GlobalAddr a = addr + done;
            std::uint64_t chunk;
            chargeCheck();
            const std::uint8_t *p =
                check_inline ? hit(a, 1, false) : nullptr;
            if (p) {
                chunk = std::min<std::uint64_t>(bytes - done,
                                                table_->unitEnd(a) - a);
                std::memcpy(out + done, p, chunk);
            } else {
                check_inline = false;
                chunk = load(a, out + done, bytes - done);
            }
            chargeRange(a, chunk, false);
            done += chunk;
        }
    }

    /** Timed bulk write of an arbitrary extent; see readBytes(). */
    void
    writeBytes(GlobalAddr addr, const void *src, std::uint64_t bytes)
    {
        const auto *in = static_cast<const std::uint8_t *>(src);
        bool check_inline = true;
        for (std::uint64_t done = 0; done < bytes;) {
            const GlobalAddr a = addr + done;
            std::uint64_t chunk;
            chargeCheck();
            std::uint8_t *p = check_inline ? hit(a, 1, true) : nullptr;
            if (p) {
                chunk = std::min<std::uint64_t>(bytes - done,
                                                table_->unitEnd(a) - a);
                std::memcpy(p, in + done, chunk);
            } else {
                check_inline = false;
                chunk = store(a, in + done, bytes - done);
            }
            chargeRange(a, chunk, true);
            done += chunk;
        }
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
    /** One reference: a power-of-two size up to 8 bytes. */
    template <typename T>
    static constexpr bool isReference =
        sizeof(T) <= 8 && (sizeof(T) & (sizeof(T) - 1)) == 0;

    /**
     * Charge SC's software access check (accessCheckCycles) before the
     * check itself, where instrumentation code would run it. The charge
     * can yield into handlers, so the check sees what they change.
     */
    void
    chargeCheck()
    {
        if (accessCheck_)
            node_.charge(accessCheck_, TimeBucket::ProtoOther);
    }

    /**
     * The node's bytes of [addr, addr + bytes) if its access table
     * grants the access inline, else null. The table never reaches
     * past the shared space, so a reference outside it misses here and
     * fails in load()/store().
     */
    std::uint8_t *
    hit(GlobalAddr addr, std::uint32_t bytes, bool write)
    {
        return table_ ? table_->lookup(addr, bytes, write) : nullptr;
    }

    /**
     * Protocol::load, once [addr, addr + bytes) is known to lie inside
     * the shared space: the one check made before any protocol table
     * is indexed.
     */
    std::uint64_t
    load(GlobalAddr addr, void *out, std::uint64_t bytes)
    {
        checkInside(addr, bytes);
        return protocol_.load(node_, addr, out, bytes);
    }

    /** Protocol::store; see load(). */
    std::uint64_t
    store(GlobalAddr addr, const void *in, std::uint64_t bytes)
    {
        checkInside(addr, bytes);
        return protocol_.store(node_, addr, in, bytes);
    }

    /** Throw FatalError unless [addr, addr + bytes) lies inside the
     *  shared space's extent. */
    void
    checkInside(GlobalAddr addr, std::uint64_t bytes)
    {
        const std::uint64_t extent = cluster_.space().extent();
        if (bytes > extent || addr > extent - bytes)
            outside(addr, bytes, extent);
    }
    [[noreturn]] static void outside(GlobalAddr addr, std::uint64_t bytes,
                                     std::uint64_t extent);

    /** Charge @p bytes moved at @p addr: a Busy cycle per word, plus
     *  the cache walk. */
    void
    chargeRange(GlobalAddr addr, std::uint64_t bytes, bool write)
    {
        node_.charge((bytes + wordBytes - 1) / wordBytes, TimeBucket::Busy);
        node_.chargeCacheRange(addr, bytes, write, TimeBucket::StallLocal);
    }

    /**
     * Load one reference through the protocol; a short count means it
     * straddles a unit. The value has a local of its own, so that only
     * this slow path takes its address and a hit keeps it in a register.
     */
    template <typename T>
    T
    loadReference(GlobalAddr addr)
    {
        T v;
        if (load(addr, &v, sizeof(T)) != sizeof(T))
            straddles(addr, sizeof(T));
        return v;
    }

    /** Store one reference through the protocol; see loadReference(). */
    template <typename T>
    void
    storeReference(GlobalAddr addr, T v)
    {
        if (store(addr, &v, sizeof(T)) != sizeof(T))
            straddles(addr, sizeof(T));
    }

    /** Throw FatalError for a reference that crosses a unit boundary. */
    [[noreturn]] static void straddles(GlobalAddr addr,
                                       std::uint32_t bytes);

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
    /** The node's access table, or null with the fast path off. */
    AccessTable *const table_;
    /** Cycles of each reference's access check (SC only; 0 default). */
    const Cycles accessCheck_;
};

} // namespace swsm

#endif // SWSM_MACHINE_THREAD_HH
