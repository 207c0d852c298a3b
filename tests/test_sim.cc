/**
 * @file
 * Unit tests for the discrete-event kernel, RNG and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace swsm
{
namespace
{

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CrossSlotTiesBreakBySchedulingSlot)
{
    // Simultaneous events run in the stamp order of the slot that
    // scheduled each one, not in global scheduling order: slot 1
    // schedules B1 first, yet slot 0's A0 and X run before it. X runs
    // in slot 1 (scheduleTo), so Y, which X schedules, carries a slot-1
    // stamp and runs after W, which slot 0 schedules later.
    EventQueue eq;
    eq.setNumSlots(2);
    std::vector<std::string> order;
    const auto record = [&order](const char *name) {
        return [&order, name] { order.push_back(name); };
    };
    eq.scheduleTo(1, 0, [&] { eq.schedule(10, record("B1")); });
    eq.schedule(1, [&] {
        eq.schedule(10, record("A0"));
        eq.scheduleTo(1, 10, [&] {
            order.push_back("X");
            eq.schedule(20, record("Y"));
        });
        eq.schedule(15, [&] { eq.schedule(20, record("W")); });
    });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"A0", "X", "B1", "W", "Y"}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleAfter(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.schedule(5, [] {}), "past");
    });
    eq.run();
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    EXPECT_EQ(eq.run(4u), 4u);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, NowAdvancesMonotonically)
{
    EventQueue eq;
    Cycles last = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Cycles>((i * 37) % 50), [&, i] {
            EXPECT_GE(eq.now(), last);
            last = eq.now();
        });
    eq.run();
}

TEST(EventFn, SupportsMoveOnlyCallables)
{
    // std::function cannot hold this; EventFn must.
    auto box = std::make_unique<int>(42);
    int seen = 0;
    EventFn fn([b = std::move(box), &seen] { seen = *b; });
    EXPECT_TRUE(static_cast<bool>(fn));
    fn();
    EXPECT_EQ(seen, 42);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int calls = 0;
    EventFn a([&calls] { ++calls; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    EventFn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(EventFn, LargeCapturesFallBackToHeap)
{
    // A capture well past inlineBytes must still work (heap fallback)
    // and destroy its state exactly once.
    struct Big
    {
        unsigned char pad[2 * EventFn::inlineBytes] = {};
        std::shared_ptr<int> counter;
    };
    static_assert(sizeof(Big) > EventFn::inlineBytes);

    auto counter = std::make_shared<int>(0);
    {
        Big big;
        big.counter = counter;
        big.pad[0] = 7;
        EventFn fn([big] { *big.counter += big.pad[0]; });
        EXPECT_EQ(counter.use_count(), 3); // local, Big copy in lambda
        EventFn moved(std::move(fn));
        moved();
    }
    EXPECT_EQ(*counter, 7);
    EXPECT_EQ(counter.use_count(), 1); // lambda state destroyed
}

TEST(EventFn, InlineCapturesDoNotLeak)
{
    auto counter = std::make_shared<int>(0);
    {
        EventFn fn([counter] { ++*counter; });
        EXPECT_EQ(counter.use_count(), 2);
        EventFn moved(std::move(fn));
        EXPECT_EQ(counter.use_count(), 2); // relocated, not copied
        moved();
    }
    EXPECT_EQ(*counter, 1);
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFn, PassesArgumentsAndReturnsResults)
{
    // The storage comes first and the ops pointer last, so an N of
    // 16k + 8 bytes leaves no padding.
    static_assert(sizeof(EventFn) == EventFn::inlineBytes + 8);
    static_assert(sizeof(InlineFn<int(int, int &), 24>) == 32);

    InlineFn<int(int, int &), 24> add([base = 10](int a, int &out) {
        out = a + base;
        return 2 * out;
    });
    int out = 0;
    EXPECT_EQ(add(5, out), 30);
    EXPECT_EQ(out, 15);
    InlineFn<int(int, int &), 24> moved(std::move(add));
    EXPECT_FALSE(static_cast<bool>(add));
    EXPECT_EQ(moved(1, out), 22);
    moved = nullptr;
    EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(EventQueue, AcceptsMoveOnlyCallbacks)
{
    EventQueue eq;
    auto payload = std::make_unique<int>(9);
    int got = 0;
    eq.schedule(1, [p = std::move(payload), &got] { got = *p; });
    eq.run();
    EXPECT_EQ(got, 9);
}

TEST(EventQueue, ReserveDoesNotDisturbOrdering)
{
    EventQueue eq;
    eq.reserve(1024);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(static_cast<Cycles>((i * 37) % 17),
                    [&order, i] { order.push_back(i); });
    eq.run();
    std::vector<int> expect;
    for (int i = 0; i < 64; ++i)
        expect.push_back(i);
    std::stable_sort(expect.begin(), expect.end(), [](int a, int b) {
        return (a * 37) % 17 < (b * 37) % 17;
    });
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CallbackSurvivesTheSlabGrowthItCauses)
{
    // One callback schedules far more events than a slab chunk holds,
    // so the slab grows while the callback runs in it. It stays put
    // because chunks never move: its by-value captures stay intact,
    // and the events it scheduled still run in (when, seq) order.
    constexpr int n = 10000;
    auto when = [](int i) {
        return static_cast<Cycles>(2 + (i * 7919) % 97);
    };
    EventQueue eq;
    std::vector<int> order;
    const std::vector<std::uint64_t> canary = {0xfeedu, 0xbeefu, 0xcafeu};
    bool intact = false;
    eq.schedule(1, [&eq, &order, &intact, &when, canary] {
        for (int i = 0; i < n; ++i)
            eq.schedule(when(i), [&order, i] { order.push_back(i); });
        intact = canary == std::vector<std::uint64_t>{0xfeedu, 0xbeefu,
                                                      0xcafeu};
    });
    eq.run();
    EXPECT_TRUE(intact);
    EXPECT_GE(eq.maxPending(), static_cast<std::uint64_t>(n));
    std::vector<int> expect(n);
    for (int i = 0; i < n; ++i)
        expect[i] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [&](int a, int b) { return when(a) < when(b); });
    EXPECT_EQ(order, expect);
}

/**
 * The reference event set: whole events in a std::push_heap/pop_heap
 * binary heap ordered by (when, stamp), with the kernel's stamp rule,
 * (scheduling slot << 48) | per-slot sequence. EventQueue must run any
 * schedule in exactly its order.
 */
class ReferenceQueue
{
  public:
    explicit ReferenceQueue(std::uint32_t slots) : seq_(slots, 0) {}

    Cycles now() const { return now_; }

    void
    schedule(Cycles when, std::function<void()> fn)
    {
        push(when, curSlot_, std::move(fn));
    }

    void
    scheduleTo(std::uint32_t slot, Cycles when, std::function<void()> fn)
    {
        push(when, slot, std::move(fn));
    }

    void
    run()
    {
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Event ev = std::move(heap_.back());
            heap_.pop_back();
            now_ = ev.when;
            curSlot_ = ev.execSlot;
            ev.fn();
        }
    }

  private:
    struct Event
    {
        Cycles when;
        std::uint64_t stamp;
        std::uint32_t execSlot;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.stamp > b.stamp;
        }
    };

    void
    push(Cycles when, std::uint32_t exec_slot, std::function<void()> fn)
    {
        const std::uint64_t stamp =
            (std::uint64_t{curSlot_} << 48) | seq_[curSlot_]++;
        heap_.push_back(Event{when, stamp, exec_slot, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    std::vector<Event> heap_;
    std::vector<std::uint64_t> seq_;
    Cycles now_ = 0;
    std::uint32_t curSlot_ = 0;
};

/** One executed event of a scripted run: its id and time. */
using Fired = std::pair<int, Cycles>;

/**
 * Run a seeded script on @p q across 8 slots. What event @p id does
 * depends only on (seed, id): it records itself, then schedules up to
 * three children 0-2 cycles ahead (so most events tie on time), each
 * in its own slot or, by scheduleTo, in a drawn one.
 */
template <typename Queue>
std::vector<Fired>
runScript(Queue &q, std::uint64_t seed)
{
    constexpr int maxEvents = 6000;
    std::vector<Fired> fired;
    int next_id = 0;
    std::function<void(int)> body;
    const auto spawn = [&](Rng &rng, Cycles base) {
        const int id = next_id++;
        const Cycles when = base + rng.nextBounded(3);
        if (rng.nextBounded(2))
            q.scheduleTo(static_cast<std::uint32_t>(rng.nextBounded(8)),
                         when, [&body, id] { body(id); });
        else
            q.schedule(when, [&body, id] { body(id); });
    };
    body = [&](int id) {
        fired.emplace_back(id, q.now());
        Rng rng(seed * 1000003 + static_cast<std::uint64_t>(id));
        for (auto k = rng.nextBounded(4); k > 0 && next_id < maxEvents; --k)
            spawn(rng, q.now());
    };
    Rng rng(seed);
    for (int i = 0; i < 64; ++i)
        spawn(rng, 0);
    q.run();
    return fired;
}

TEST(EventQueue, MatchesReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        EventQueue eq;
        eq.setNumSlots(8);
        ReferenceQueue ref(8);
        const std::vector<Fired> got = runScript(eq, seed);
        const std::vector<Fired> want = runScript(ref, seed);
        ASSERT_GT(want.size(), 1000u) << "seed " << seed;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << ": event " << i << " ran event "
                << got[i].first << " at " << got[i].second
                << ", the reference event " << want[i].first << " at "
                << want[i].second;
        }
    }
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Stats, CounterAccumulates)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorTracksMoments)
{
    Accumulator a;
    a.sample(1.0);
    a.sample(3.0);
    a.sample(2.0);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, EmptyAccumulatorIsZero)
{
    Accumulator a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, HistogramBucketsPowerOfTwo)
{
    Histogram h(8);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(100);
    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u); // 0
    EXPECT_EQ(h.bucketCount(1), 1u); // 1
    EXPECT_EQ(h.bucketCount(2), 2u); // 2..3
    // The top bucket holds [2^6, 2^7) and everything clamped above it.
    EXPECT_EQ(h.bucketCount(7), 1u); // 100
    h.sample(64);
    h.sample(~std::uint64_t{0});
    EXPECT_EQ(h.bucketCount(6), 0u);
    EXPECT_EQ(h.bucketCount(7), 3u);
    EXPECT_EQ(h.totalSamples(), 7u);
}

TEST(TimeBuckets, NamesAndProtoClassification)
{
    EXPECT_STREQ(timeBucketName(TimeBucket::Busy), "busy");
    EXPECT_STREQ(timeBucketName(TimeBucket::ProtoDiff), "proto_diff");
    EXPECT_FALSE(isProtoBucket(TimeBucket::Busy));
    EXPECT_FALSE(isProtoBucket(TimeBucket::BarrierWait));
    EXPECT_TRUE(isProtoBucket(TimeBucket::ProtoHandler));
    EXPECT_TRUE(isProtoBucket(TimeBucket::ProtoOther));
}

} // namespace
} // namespace swsm
