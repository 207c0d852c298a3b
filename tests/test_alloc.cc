/**
 * @file
 * Heap allocations on the message path, counted by a replaced global
 * operator new. Once the event slab, the network's message table and
 * its channels have grown to a workload's deepest moment, scheduling
 * events and sending request and data messages through MsgLayer with
 * captures the size of the protocols' must allocate nothing.
 *
 * A binary of its own: the replaced operator new would stand in for a
 * sanitizer's, so the AddressSanitizer job does not build it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "comm/msg_layer.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace
{
/** Calls of the global operator new (and of new[], which calls it). */
std::uint64_t allocations = 0;
} // namespace

void *
operator new(std::size_t bytes)
{
    ++allocations;
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace swsm
{
namespace
{

/** Allocations made by @p body. */
template <typename Body>
std::uint64_t
allocationsOf(Body &&body)
{
    const std::uint64_t before = allocations;
    body();
    return allocations - before;
}

/**
 * One node's handler context: runs each posted handler at once and
 * sends its replies through the message layer, as the machine layer's
 * handler environment does.
 */
class Endpoint : public NodeEnv, public HandlerSink
{
  public:
    Endpoint(NodeId id, MsgLayer &msg) : id_(id), msg_(msg) {}

    /** Continue from @p t, the queue's time, between rounds. */
    void resumeAt(Cycles t) { now_ = t; }

    NodeId node() const override { return id_; }
    Cycles now() const override { return now_; }
    void charge(Cycles cycles, TimeBucket) override { now_ += cycles; }

    void
    sendRequest(NodeId dst, std::uint32_t payload_bytes, HandlerFn &&fn,
                TimeBucket) override
    {
        msg_.sendRequest(id_, dst, payload_bytes, now_, std::move(fn));
    }

    void
    sendData(NodeId dst, std::uint32_t payload_bytes, DataFn &&fn,
             TimeBucket) override
    {
        msg_.sendData(id_, dst, payload_bytes, now_, std::move(fn));
    }

    void chargeCacheRange(GlobalAddr, std::uint64_t, bool,
                          TimeBucket) override
    {
    }
    void invalidateCacheRange(GlobalAddr, std::uint64_t) override {}

    void
    postHandler(Cycles ready, HandlerFn &&fn) override
    {
        now_ = ready;
        HandlerFn handler = std::move(fn);
        handler(*this);
        ++handled;
    }

    std::uint64_t handled = 0;
    std::uint64_t delivered = 0;

  private:
    NodeId id_;
    MsgLayer &msg_;
    Cycles now_ = 0;
};

constexpr int numNodes = 4;
constexpr std::uint32_t blockBytes = 4096;

/** A four-node message layer with one Endpoint per node. */
struct Fabric
{
    explicit Fabric(const CommParams &params = CommParams::achievable())
        : net(eq, numNodes, params), msg(net)
    {
        for (NodeId n = 0; n < numNodes; ++n) {
            ends.push_back(std::make_unique<Endpoint>(n, msg));
            msg.attachSink(n, ends.back().get());
        }
    }

    EventQueue eq;
    Network net;
    MsgLayer msg;
    std::vector<std::unique_ptr<Endpoint>> ends;
};

/**
 * One round of protocol-shaped traffic, every node at once:
 *  - an SC-style miss: a small request whose closure holds a block,
 *    its base, the requester and the access kind, answered by a grant
 *    carrying a block-sized snapshot (two packets) in a closure as
 *    large as SC's data grant;
 *  - an SC-style writeback: a request filling HandlerFn's inline bytes
 *    with a snapshot vector, answered by a small ack;
 *  - an HLRC-style diff: a request carrying its diff words, answered
 *    by a small ack;
 *  - a request to itself (the network's local dispatch).
 * The snapshots and diffs come from @p pool (made before the round), so
 * every allocation counted is the message path's own.
 */
void
round(Fabric &f, std::vector<std::vector<std::uint8_t>> &pool)
{
    for (NodeId n = 0; n < numNodes; ++n) {
        Endpoint &src = *f.ends[n];
        src.resumeAt(f.eq.now());
        const NodeId home = (n + 1) % numNodes;
        const std::uint64_t block = 7 * n + 1;
        const GlobalAddr base = block * blockBytes;
        const bool write = n % 2;

        auto miss = [&f, &pool, block, base, n, write](NodeEnv &henv) {
            std::vector<std::uint8_t> snap = std::move(pool.back());
            pool.pop_back();
            auto grant = [&f, n, block, base, write,
                          snap = std::move(snap)](Cycles) {
                f.ends[n]->delivered += snap.size() + write + block + base;
            };
            static_assert(sizeof(grant) > HandlerFn::inlineBytes &&
                          DataFn::storesInline<decltype(grant)>());
            henv.sendData(n, blockBytes, std::move(grant),
                          TimeBucket::ProtoHandler);
        };
        src.sendRequest(home, 8, std::move(miss), TimeBucket::ProtoOther);

        auto writeback = [&f, block, base, n, write,
                          snap = std::move(pool.back())](NodeEnv &henv) {
            henv.sendData(n, 8,
                          [&f, n, bytes = snap.size() + block + base +
                                          write](Cycles) {
                              f.ends[n]->delivered += bytes;
                          },
                          TimeBucket::ProtoHandler);
        };
        pool.pop_back();
        static_assert(sizeof(writeback) == HandlerFn::inlineBytes);
        src.sendRequest(home, 8 + blockBytes, std::move(writeback),
                        TimeBucket::ProtoHandler);

        std::vector<std::uint8_t> words = std::move(pool.back());
        pool.pop_back();
        const auto seq = static_cast<std::uint32_t>(n);
        auto diff = [&f, block, n, seq,
                     words = std::move(words)](NodeEnv &henv) {
            henv.sendData(n, 8,
                          [&f, n, w = words.size() + seq + block](Cycles) {
                              f.ends[n]->delivered += w;
                          },
                          TimeBucket::ProtoHandler);
        };
        src.sendRequest(home, 8 + 8 * 64, std::move(diff),
                        TimeBucket::ProtoDiff);

        src.sendRequest(n, 8,
                        [n](NodeEnv &henv) {
                            henv.charge(n, TimeBucket::ProtoHandler);
                        },
                        TimeBucket::ProtoOther);
    }
    f.eq.run();
}

/** Snapshot and diff buffers for @p rounds rounds. */
std::vector<std::vector<std::uint8_t>>
pool(int rounds)
{
    return std::vector<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(rounds) * numNodes * 3,
        std::vector<std::uint8_t>(blockBytes));
}

TEST(MessagePathAllocations, SteadyStateMessagesAllocateNothing)
{
    Fabric f;
    auto buffers = pool(6);
    for (int warm = 0; warm < 2; ++warm)
        round(f, buffers);
    const std::uint64_t sent_before = f.net.messagesSent().value();

    const std::uint64_t made = allocationsOf([&] {
        for (int r = 0; r < 4; ++r)
            round(f, buffers);
    });
    EXPECT_EQ(made, 0u) << "allocations in four rounds of "
                        << (f.net.messagesSent().value() - sent_before) / 4
                        << " messages";

    std::uint64_t handled = 0;
    for (const auto &e : f.ends)
        handled += e->handled;
    // Four requests per node and round, six rounds; every request but
    // the self-send draws a reply.
    EXPECT_EQ(handled, 6u * numNodes * 4);
    EXPECT_EQ(f.net.messagesSent().value(), 6u * numNodes * 7);
    EXPECT_TRUE(f.eq.empty());
}

TEST(MessagePathAllocations, InterruptDispatchAllocatesNothing)
{
    // Interrupt-driven handling charges the dispatch where the handler
    // runs; the message layer passes the handler through unwrapped.
    CommParams params = CommParams::achievable();
    params.interruptCost = 400;
    Fabric f(params);
    auto buffers = pool(6);
    for (int warm = 0; warm < 2; ++warm)
        round(f, buffers);
    const std::uint64_t made = allocationsOf([&] {
        for (int r = 0; r < 4; ++r)
            round(f, buffers);
    });
    EXPECT_EQ(made, 0u);
    EXPECT_EQ(f.net.messagesSent().value(), 6u * numNodes * 7);
}

TEST(MessagePathAllocations, SteadyStateEventsAllocateNothing)
{
    // A chain of events each scheduling the next, with captures up to
    // EventFn's inline size, across slots: once the slab has its
    // chunk, scheduling and running allocates nothing.
    EventQueue eq;
    eq.setNumSlots(4);
    struct Wide
    {
        std::uint64_t words[7];
    };
    std::uint64_t sum = 0;
    int left = 0;
    std::function<void()> next;
    next = [&] {
        if (left-- <= 0)
            return;
        const Wide w{{1, 2, 3, 4, 5, 6, 7}};
        auto fn = [&next, &sum, w] {
            sum += w.words[6];
            next();
        };
        static_assert(sizeof(fn) == EventFn::inlineBytes);
        eq.scheduleTo(static_cast<std::uint32_t>(left % 4),
                      eq.now() + left % 3, std::move(fn));
        eq.scheduleAfter(1, [&sum] { ++sum; });
    };
    left = 1000;
    eq.schedule(0, [&next] { next(); });
    eq.run();

    left = 100000;
    const std::uint64_t made = allocationsOf([&] {
        eq.schedule(eq.now(), [&next] { next(); });
        eq.run();
    });
    EXPECT_EQ(made, 0u);
    EXPECT_EQ(sum, 8u * (1000 + 100000));
}

} // namespace
} // namespace swsm
