/**
 * @file
 * Message-layer tests with a mock handler sink: request vs. data
 * semantics, handling cost, and an analytic
 * validation of the end-to-end message latency model across the
 * paper's communication parameter sets (the simulator-validation step
 * of the paper's methodology, §3.1, done against closed-form LogGP-
 * style expectations instead of a physical cluster).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/msg_layer.hh"
#include "sim/event_queue.hh"

namespace swsm
{
namespace
{

/** Records posted work instead of running a processor. */
class MockSink : public HandlerSink
{
  public:
    struct Posted
    {
        Cycles ready;
        HandlerFn fn;
    };

    void
    postHandler(Cycles ready, HandlerFn &&fn) override
    {
        handlers.push_back(Posted{ready, std::move(fn)});
    }

    std::vector<Posted> handlers;
};

/** Minimal NodeEnv for executing captured handlers in tests. */
class MockEnv : public NodeEnv
{
  public:
    explicit MockEnv(Cycles start) : now_(start) {}

    NodeId node() const override { return 0; }
    Cycles now() const override { return now_; }

    void
    charge(Cycles cycles, TimeBucket bucket) override
    {
        now_ += cycles;
        charged[static_cast<int>(bucket)] += cycles;
    }

    void
    sendRequest(NodeId, std::uint32_t, HandlerFn &&, TimeBucket) override
    {
    }
    void sendData(NodeId, std::uint32_t, DataFn &&, TimeBucket) override {}
    void chargeCacheRange(GlobalAddr, std::uint64_t, bool,
                          TimeBucket) override
    {
    }
    void invalidateCacheRange(GlobalAddr, std::uint64_t) override {}

    Cycles now_;
    std::array<Cycles, numTimeBuckets> charged{};
};

struct CommFixture
{
    explicit CommFixture(const CommParams &params)
        : net(eq, 2, params), msg(net)
    {
        msg.attachSink(0, &sink0);
        msg.attachSink(1, &sink1);
    }

    EventQueue eq;
    Network net;
    MsgLayer msg;
    MockSink sink0;
    MockSink sink1;
};

TEST(MsgLayer, RequestWaitsHandlingCostThenPosts)
{
    CommParams p = CommParams::best();
    p.handlingCost = 123;
    CommFixture f(p);
    bool ran = false;
    f.msg.sendRequest(0, 1, 8, 0, [&](NodeEnv &) { ran = true; });
    f.eq.run();
    ASSERT_EQ(f.sink1.handlers.size(), 1u);
    // ready = delivery + handling cost; with best params, delivery is
    // wire + bandwidth time only.
    EXPECT_GT(f.sink1.handlers[0].ready, 123u);
    EXPECT_FALSE(ran); // the mock does not execute handlers
    MockEnv env(f.sink1.handlers[0].ready);
    f.sink1.handlers[0].fn(env);
    EXPECT_TRUE(ran);
}

TEST(MsgLayer, DataBypassesHandlers)
{
    CommFixture f(CommParams::best());
    Cycles delivered = 0;
    Cycles ran_at = 0;
    f.msg.sendData(0, 1, 64, 0, [&](Cycles t) {
        delivered = t;
        ran_at = f.eq.now();
    });
    f.eq.run();
    // No handler is posted at either end; the callback runs in the
    // delivery event itself, at the delivery time it is handed.
    EXPECT_TRUE(f.sink0.handlers.empty());
    EXPECT_TRUE(f.sink1.handlers.empty());
    EXPECT_GT(delivered, 0u);
    EXPECT_EQ(ran_at, delivered);
}

TEST(MsgLayer, CountsByKind)
{
    CommFixture f(CommParams::best());
    f.msg.sendRequest(0, 1, 8, 0, [](NodeEnv &) {});
    f.msg.sendData(0, 1, 8, 0, [](Cycles) {});
    f.msg.sendData(1, 0, 8, 0, [](Cycles) {});
    f.eq.run();
    EXPECT_EQ(f.msg.requestsSent().value(), 1u);
    EXPECT_EQ(f.msg.dataSent().value(), 2u);
}

// ------------------------------------------------ latency validation

struct LatencyCase
{
    char set;
    std::uint32_t payload;
};

void
PrintTo(const LatencyCase &c, std::ostream *os)
{
    *os << c.set << "/" << c.payload << "B";
}

/**
 * Validation: the uncontended one-way latency of a message must match
 * the closed-form sum of the pipeline stages for every parameter set
 * and message size up to one packet.
 */
class MessageLatency : public ::testing::TestWithParam<LatencyCase>
{
};

TEST_P(MessageLatency, MatchesClosedForm)
{
    const CommParams p = CommParams::fromName(GetParam().set);
    const std::uint32_t bytes = msgHeaderBytes + GetParam().payload;
    ASSERT_LE(bytes, p.maxPacketBytes);

    CommFixture f(p);
    Cycles delivered = 0;
    f.msg.sendData(0, 1, GetParam().payload, 0,
                   [&](Cycles t) { delivered = t; });
    f.eq.run();

    const auto xfer = [](std::uint32_t n, double bw) {
        return static_cast<Cycles>(std::ceil(n / bw));
    };
    const Cycles expect = xfer(bytes, p.ioBusBytesPerCycle) +
        p.niOccupancyPerPacket + p.linkLatency +
        xfer(bytes, p.linkBytesPerCycle) + p.niOccupancyPerPacket +
        xfer(bytes, p.ioBusBytesPerCycle);
    EXPECT_EQ(delivered, expect);
}

std::vector<LatencyCase>
latencyCases()
{
    std::vector<LatencyCase> cases;
    for (const char set : {'A', 'H', 'B', 'W', 'X'})
        for (const std::uint32_t payload : {0u, 8u, 64u, 1024u, 4000u})
            cases.push_back({set, payload});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MessageLatency, ::testing::ValuesIn(latencyCases()),
    [](const ::testing::TestParamInfo<LatencyCase> &info) {
        return std::string(1, info.param.set) + "_" +
               std::to_string(info.param.payload) + "B";
    });

} // namespace
} // namespace swsm
