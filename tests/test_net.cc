/**
 * @file
 * Unit tests for communication parameters, FCFS resources and the
 * endpoint-contention network model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "net/comm_params.hh"
#include "sim/log.hh"
#include "net/fcfs_resource.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace swsm
{
namespace
{

TEST(CommParams, NamedSetsMatchPaperStructure)
{
    const CommParams a = CommParams::achievable();
    const CommParams b = CommParams::best();
    const CommParams h = CommParams::halfway();
    const CommParams w = CommParams::worse();
    const CommParams x = CommParams::betterThanBest();

    EXPECT_GT(a.hostOverhead, 0u);
    EXPECT_EQ(b.hostOverhead, 0u);
    EXPECT_EQ(b.niOccupancyPerPacket, 0u);
    EXPECT_EQ(b.handlingCost, 0u);
    EXPECT_GT(b.ioBusBytesPerCycle, a.ioBusBytesPerCycle);
    EXPECT_EQ(h.hostOverhead, a.hostOverhead / 2);
    EXPECT_EQ(w.hostOverhead, 2 * a.hostOverhead);
    EXPECT_LT(w.ioBusBytesPerCycle, a.ioBusBytesPerCycle);
    EXPECT_EQ(x.linkLatency, 0u);
    EXPECT_GT(x.ioBusBytesPerCycle, b.ioBusBytesPerCycle);
}

TEST(CommParams, FromNameRoundTrips)
{
    EXPECT_EQ(CommParams::fromName('A').hostOverhead,
              CommParams::achievable().hostOverhead);
    EXPECT_EQ(CommParams::fromName('B').handlingCost, 0u);
    EXPECT_THROW(CommParams::fromName('Z'), FatalError);
}

TEST(CommParams, InterpolateEndpoints)
{
    const CommParams a = CommParams::achievable();
    const CommParams b = CommParams::best();
    EXPECT_EQ(a.interpolate(b, 0.0).hostOverhead, a.hostOverhead);
    EXPECT_EQ(a.interpolate(b, 1.0).hostOverhead, 0u);
    EXPECT_EQ(a.interpolate(b, 0.5).hostOverhead, a.hostOverhead / 2);
}

TEST(FcfsResource, NoContentionPassesThrough)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(100, 10), 110u);
    EXPECT_EQ(r.acquire(200, 10), 210u);
    EXPECT_EQ(r.queueingDelay().max(), 0.0);
}

TEST(FcfsResource, ContentionSerializes)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(100, 50), 150u);
    EXPECT_EQ(r.acquire(100, 50), 200u); // queued behind the first
    EXPECT_EQ(r.acquire(120, 50), 250u);
    EXPECT_EQ(r.totalBusyCycles().value(), 150u);
    EXPECT_EQ(r.totalUses().value(), 3u);
}

TEST(FcfsResource, ZeroDurationIsFree)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(5, 0), 5u);
    EXPECT_EQ(r.acquire(5, 0), 5u);
}

TEST(FcfsResource, SameCycleRequestsFromDifferentNodesAreDeterministic)
{
    // Requests landing on a shared resource in the same cycle must
    // acquire it in a deterministic order. The event queue breaks the
    // when-tie by scheduling stamp, which is slot-major: node 0's
    // request runs first no matter what order the nodes were seeded in.
    auto run = [] {
        EventQueue eq;
        eq.setNumSlots(4);
        FcfsResource r;
        std::vector<int> order;
        std::vector<Cycles> done(4);
        // Seed each node's slot in reverse; each node then requests the
        // resource at the same cycle, stamped from its own slot.
        for (int n = 3; n >= 0; --n) {
            eq.scheduleTo(static_cast<std::uint32_t>(n), 50, [&, n] {
                eq.schedule(100, [&, n] {
                    order.push_back(n);
                    done[n] = r.acquire(eq.now(), 10);
                });
            });
        }
        eq.run();
        return std::make_pair(order, done);
    };
    const auto [order, done] = run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(done[n], 110u + 10u * static_cast<Cycles>(n));
    EXPECT_EQ(run(), std::make_pair(order, done)); // stable across runs
}

class NetworkTest : public ::testing::Test
{
  protected:
    /** Expected uncontended one-packet latency under @p p. */
    static Cycles
    onePacketLatency(const CommParams &p, std::uint32_t bytes)
    {
        const auto xfer = [](std::uint32_t n, double bw) {
            return static_cast<Cycles>(
                std::ceil(static_cast<double>(n) / bw));
        };
        return xfer(bytes, p.ioBusBytesPerCycle) +
               p.niOccupancyPerPacket + p.linkLatency +
               xfer(bytes, p.linkBytesPerCycle) +
               p.niOccupancyPerPacket + xfer(bytes, p.ioBusBytesPerCycle);
    }
};

TEST_F(NetworkTest, UncontendedLatencyMatchesModel)
{
    EventQueue eq;
    const CommParams p = CommParams::achievable();
    Network net(eq, 4, p);
    Cycles delivered = 0;
    net.send(0, 1, 64, 1000, [&](Cycles t) { delivered = t; });
    eq.run();
    EXPECT_EQ(delivered, 1000 + onePacketLatency(p, 64));
}

TEST_F(NetworkTest, BestParametersLeaveOnlyWireTime)
{
    EventQueue eq;
    const CommParams p = CommParams::best();
    Network net(eq, 2, p);
    Cycles delivered = 0;
    net.send(0, 1, 64, 0, [&](Cycles t) { delivered = t; });
    eq.run();
    EXPECT_EQ(delivered, onePacketLatency(p, 64));
    EXPECT_GT(delivered, 0u); // bandwidth and link latency remain
}

TEST_F(NetworkTest, LargeMessageSplitsIntoPackets)
{
    EventQueue eq;
    CommParams p = CommParams::achievable();
    Network net(eq, 2, p);
    Cycles delivered = 0;
    // 3 packets of <= 4096 bytes; pipelining means the total is less
    // than 3x the single-packet latency but more than 1x.
    net.send(0, 1, 3 * 4096, 0, [&](Cycles t) { delivered = t; });
    eq.run();
    const Cycles one = onePacketLatency(p, 4096);
    EXPECT_GT(delivered, one);
    EXPECT_LT(delivered, 3 * one);
}

TEST_F(NetworkTest, SameChannelIsFifo)
{
    // Multi-packet messages interleaved with one-packet ones on one
    // channel, in two bursts. Each small message's packet overtakes the
    // large one's last packet on the wire (1000 cycles of NI occupancy
    // against 4096 of link time), so the channel holds it back: it is
    // delivered at its predecessor's delivery time, never before.
    EventQueue eq;
    const CommParams p = CommParams::achievable();
    Network net(eq, 2, p);
    struct Send
    {
        std::uint32_t bytes;
        Cycles ready;
    };
    const std::vector<Send> sends = {
        {8192, 0}, {16, 0},      {4112, 0}, {64, 0},
        {4096, 0}, {16, 0},      {16, 60000}, {9000, 60000},
        {32, 60000}, {4096, 60000}, {16, 60000},
    };
    std::vector<int> order;
    std::vector<Cycles> times(sends.size(), 0);
    for (std::size_t i = 0; i < sends.size(); ++i) {
        net.send(0, 1, sends[i].bytes, sends[i].ready, [&, i](Cycles t) {
            order.push_back(static_cast<int>(i));
            times[i] = t;
            EXPECT_EQ(t, eq.now()); // delivered when the event runs
        });
    }
    eq.run();
    std::vector<int> fifo(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i)
        fifo[i] = static_cast<int>(i);
    EXPECT_EQ(order, fifo);

    // The first message's two packets cross the sender's I/O bus back
    // to back (8192 cycles each) and pipeline through the rest, except
    // that message 1's packet, having overtaken the second one, takes
    // the receiver's I/O bus (32 cycles) just before it.
    const Cycles io = 4096 / 0.5;
    EXPECT_EQ(times[0], 2 * io + p.niOccupancyPerPacket + p.linkLatency +
                            4096 + p.niOccupancyPerPacket + 16 / 0.5 + io);
    // The rest as the model times them; each overtaker (1, 3, 5, 8 and
    // 10) lands with its predecessor.
    EXPECT_EQ(times, (std::vector<Cycles>{30724, 30724, 39076, 39076,
                                          47300, 47300, 62100, 92404,
                                          92404, 100628, 100628}));
    for (std::size_t i = 1; i < sends.size(); ++i)
        EXPECT_GE(times[i], times[i - 1]) << "message " << i;
}

TEST_F(NetworkTest, SelfSendSkipsNic)
{
    EventQueue eq;
    Network net(eq, 2, CommParams::achievable());
    Cycles delivered = 0;
    net.send(1, 1, 4096, 77, [&](Cycles t) { delivered = t; });
    eq.run();
    EXPECT_EQ(delivered, 77u);
    EXPECT_EQ(net.nic(1).niProc.totalUses().value(), 0u);
}

TEST_F(NetworkTest, EndpointContentionDelaysSecondSender)
{
    EventQueue eq;
    const CommParams p = CommParams::achievable();
    Network net(eq, 3, p);
    Cycles t1 = 0, t2 = 0;
    // Two senders to the same destination: the receiver NI/IO serialize.
    net.send(0, 2, 4096, 0, [&](Cycles t) { t1 = t; });
    net.send(1, 2, 4096, 0, [&](Cycles t) { t2 = t; });
    eq.run();
    EXPECT_GT(std::max(t1, t2),
              onePacketLatency(p, 4096)); // someone got delayed
    EXPECT_GT(net.nic(2).ioBus.queueingDelay().max(), 0.0);
}

TEST_F(NetworkTest, DistinctPairsDoNotInterfere)
{
    EventQueue eq;
    const CommParams p = CommParams::achievable();
    Network net(eq, 4, p);
    Cycles t1 = 0, t2 = 0;
    net.send(0, 1, 256, 0, [&](Cycles t) { t1 = t; });
    net.send(2, 3, 256, 0, [&](Cycles t) { t2 = t; });
    eq.run();
    EXPECT_EQ(t1, onePacketLatency(p, 256));
    EXPECT_EQ(t2, onePacketLatency(p, 256));
}

TEST_F(NetworkTest, MessageAndByteCounters)
{
    EventQueue eq;
    Network net(eq, 2, CommParams::best());
    net.send(0, 1, 100, 0, [](Cycles) {});
    net.send(0, 1, 200, 0, [](Cycles) {});
    eq.run();
    EXPECT_EQ(net.messagesSent().value(), 2u);
    EXPECT_EQ(net.bytesSent().value(), 300u);
}

TEST_F(NetworkTest, InvalidNodesPanic)
{
    EventQueue eq;
    Network net(eq, 2, CommParams::best());
    EXPECT_DEATH(net.send(0, 5, 10, 0, [](Cycles) {}), "invalid");
}

} // namespace
} // namespace swsm
