/**
 * @file
 * Failure-injection and misuse tests: the library must fail loudly and
 * precisely on broken programs and configurations, and the simulator's
 * deadlock detector must catch synchronization bugs instead of hanging.
 */

#include <gtest/gtest.h>

#include <string>

#include "machine/cluster.hh"
#include "machine/shared_array.hh"
#include "machine/thread.hh"
#include "sim/log.hh"

namespace swsm
{
namespace
{

MachineParams
machine(ProtocolKind kind, int procs)
{
    MachineParams mp;
    mp.numProcs = kind == ProtocolKind::Ideal ? procs : procs;
    mp.protocol = kind;
    return mp;
}

TEST(Errors, MissingBarrierArrivalIsDeadlock)
{
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
        Cluster c(machine(kind, 3));
        const BarrierId bar = c.allocBarrier();
        EXPECT_THROW(c.run([&](Thread &t) {
            if (t.id() != 2)
                t.barrier(bar); // thread 2 never arrives
        }),
                     FatalError)
            << protocolKindName(kind);
    }
}

TEST(Errors, AbandonedLockIsDeadlock)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const LockId lock = c.allocLock();
    const BarrierId bar = c.allocBarrier();
    EXPECT_THROW(c.run([&](Thread &t) {
        if (t.id() == 0) {
            t.acquire(lock); // never released
        } else {
            t.compute(10000);
            t.acquire(lock); // waits forever
        }
        t.barrier(bar);
    }),
                 FatalError);
}

TEST(Errors, ReleasingUnheldLockIsFatal)
{
    Cluster c(machine(ProtocolKind::Hlrc, 2));
    const LockId lock = c.allocLock();
    EXPECT_THROW(c.run([&](Thread &t) {
        if (t.id() == 0)
            t.release(lock);
    }),
                 FatalError);
}

TEST(Errors, UnallocatedLockIsFatal)
{
    // Protocols size their lock tables once, before the run, so an id
    // outside [0, numLocks()) must fail at the Thread call, not index
    // past a table or grow one mid-run.
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc,
                      ProtocolKind::Ideal}) {
        for (LockId bad : {1, -1}) {
            Cluster a(machine(kind, 2));
            a.allocLock();
            ASSERT_EQ(a.numLocks(), 1);
            EXPECT_THROW(a.run([&](Thread &t) {
                if (t.id() == 1)
                    t.acquire(bad);
            }),
                         FatalError)
                << protocolKindName(kind) << " acquire " << bad;

            Cluster r(machine(kind, 2));
            const LockId held = r.allocLock();
            EXPECT_THROW(r.run([&](Thread &t) {
                if (t.id() == 0) {
                    t.acquire(held);
                    t.release(bad);
                }
            }),
                         FatalError)
                << protocolKindName(kind) << " release " << bad;
        }
    }
}

TEST(Errors, UnallocatedBarrierIsFatal)
{
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc,
                      ProtocolKind::Ideal}) {
        Cluster c(machine(kind, 2));
        ASSERT_EQ(c.numBarriers(), 0);
        EXPECT_THROW(c.run([](Thread &t) { t.barrier(0); }), FatalError)
            << protocolKindName(kind);
    }
}

TEST(Errors, StraddlingReferenceIsFatal)
{
    // An 8-byte reference 4 bytes before the end of a page (HLRC) or a
    // block (SC) homed elsewhere: the node's copy of that unit ends
    // halfway through it. A 4-byte access to the same word first maps
    // the unit, so the straddling one also misses the inline check.
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc}) {
        for (bool store : {false, true}) {
            const MachineParams mp = machine(kind, 2);
            Cluster c(mp);
            const std::uint32_t unit = kind == ProtocolKind::Hlrc
                ? mp.pageBytes
                : mp.blockBytes;
            const GlobalAddr a = c.allocAt(2 * mp.pageBytes, 1) + unit - 4;
            EXPECT_THROW(c.run([&](Thread &t) {
                if (t.id() != 0)
                    return;
                if (store) {
                    t.put<std::uint32_t>(a, 1);
                    t.put<std::uint64_t>(a, 2);
                } else {
                    (void)t.get<std::uint32_t>(a);
                    (void)t.get<std::uint64_t>(a);
                }
            }),
                         FatalError)
                << protocolKindName(kind) << (store ? " put" : " get");
        }
    }
}

TEST(Errors, ReferenceOutsideTheSharedSpaceIsFatal)
{
    // One page past the home store's extent: every protocol throws the
    // same FatalError before it indexes a per-unit table, whether or
    // not Thread checks the reference inline first.
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc,
                      ProtocolKind::Ideal}) {
        for (bool fast_path : {true, false}) {
            for (bool bulk : {false, true}) {
                MachineParams mp = machine(kind, 2);
                mp.fastPath = fast_path;
                Cluster c(mp);
                c.alloc(2 * mp.pageBytes);
                const GlobalAddr past =
                    c.space().extent() + mp.pageBytes;
                std::string what;
                try {
                    c.run([&](Thread &t) {
                        if (t.id() != 1)
                            return;
                        if (bulk) {
                            std::uint8_t buf[16];
                            t.readBytes(past, buf, sizeof(buf));
                        } else {
                            (void)t.get<std::uint64_t>(past);
                        }
                    });
                } catch (const FatalError &e) {
                    what = e.what();
                }
                EXPECT_NE(what.find("outside the shared space"),
                          std::string::npos)
                    << protocolKindName(kind)
                    << (fast_path ? " fast path" : " slow path")
                    << (bulk ? " readBytes" : " get") << ": " << what;
            }
        }
    }
}

TEST(Errors, ScBlockBelowAWordIsFatal)
{
    MachineParams mp = machine(ProtocolKind::Sc, 2);
    mp.blockBytes = 2;
    EXPECT_THROW(Cluster c(mp), FatalError);
}

TEST(Errors, ScBlockLargerThanAPageIsFatal)
{
    // A grant copies a whole block out of its home's store, which holds
    // one home per page: a block past a page would span pages homed on
    // different nodes and read past the store's end.
    for (const std::uint32_t block : {8192u, 16384u, 65536u}) {
        MachineParams mp = machine(ProtocolKind::Sc, 2);
        mp.pageBytes = 4096;
        mp.blockBytes = block;
        try {
            Cluster c(mp);
            ADD_FAILURE() << block << "-byte SC blocks were accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(block)), std::string::npos)
                << what;
            EXPECT_NE(what.find("4096"), std::string::npos) << what;
        }
    }
    MachineParams mp = machine(ProtocolKind::Sc, 2);
    mp.pageBytes = 4096;
    mp.blockBytes = 4096;
    EXPECT_NO_THROW(Cluster c(mp));
}

TEST(Errors, AllocationAfterRunIsFatal)
{
    Cluster c(machine(ProtocolKind::Ideal, 1));
    c.run([](Thread &) {});
    EXPECT_THROW(c.alloc(64), FatalError);
    EXPECT_THROW(c.allocLock(), FatalError);
    EXPECT_THROW(c.allocBarrier(), FatalError);
}

TEST(Errors, ZeroProcessorClusterIsFatal)
{
    MachineParams mp;
    mp.numProcs = 0;
    EXPECT_THROW(Cluster c(mp), FatalError);
}

TEST(Errors, TooManyNodesForScDirectoryIsFatal)
{
    MachineParams mp;
    mp.numProcs = 33; // the sharer bitmask holds 32 nodes
    mp.protocol = ProtocolKind::Sc;
    EXPECT_THROW(Cluster c(mp), FatalError);
}

TEST(Errors, NonPowerOfTwoPageSizeIsFatal)
{
    MachineParams mp;
    mp.pageBytes = 3000;
    EXPECT_THROW(Cluster c(mp), FatalError);
}

TEST(Errors, MoreProcsThanWorkStillRuns)
{
    // Degenerate partitions (empty ranges) must not crash or deadlock.
    Cluster c(machine(ProtocolKind::Hlrc, 16));
    const BarrierId bar = c.allocBarrier();
    SharedArray<std::uint32_t> a(c, 4);
    for (int i = 0; i < 4; ++i)
        a.init(c, i, 0);
    c.run([&](Thread &t) {
        if (t.id() < 4)
            a.put(t, t.id(), t.id() + 1);
        t.barrier(bar);
    });
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a.peek(c, i), static_cast<std::uint32_t>(i + 1));
}

TEST(Errors, SingleProcessorRunsEveryProtocol)
{
    for (auto kind : {ProtocolKind::Hlrc, ProtocolKind::Sc,
                      ProtocolKind::Ideal}) {
        Cluster c(machine(kind, 1));
        const LockId lock = c.allocLock();
        const BarrierId bar = c.allocBarrier();
        SharedArray<std::uint64_t> a(c, 16);
        a.init(c, 3, 0);
        c.run([&](Thread &t) {
            t.acquire(lock);
            a.put(t, 3, 99);
            t.release(lock);
            t.barrier(bar);
        });
        EXPECT_EQ(a.peek(c, 3), 99u) << protocolKindName(kind);
    }
}

} // namespace
} // namespace swsm
