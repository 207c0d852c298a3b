/**
 * @file
 * Unit tests for the cooperative fiber runtime.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <vector>

#include "fiber/fiber.hh"

namespace swsm
{
namespace
{

TEST(Fiber, RunsBodyToCompletion)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, ManyYields)
{
    int count = 0;
    Fiber f([&] {
        for (int i = 0; i < 100; ++i) {
            ++count;
            Fiber::yield();
        }
    });
    for (int i = 0; i < 100; ++i)
        f.resume();
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(f.finished());
    f.resume(); // body loop exits
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedFibers)
{
    std::vector<int> order;
    Fiber inner([&] {
        order.push_back(2);
        Fiber::yield();
        order.push_back(4);
    });
    Fiber outer([&] {
        order.push_back(1);
        inner.resume();
        order.push_back(3);
        inner.resume();
        order.push_back(5);
    });
    outer.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(inner.finished());
    EXPECT_TRUE(outer.finished());
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion exercising a healthy chunk of the default stack.
    std::function<int(int)> rec = [&](int d) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(d);
        return d == 0 ? pad[0] : rec(d - 1) + 1;
    };
    int result = -1;
    Fiber f([&] { result = rec(200); });
    f.resume();
    EXPECT_EQ(result, 200);
}

TEST(Fiber, ResumeFinishedPanics)
{
    Fiber f([] {});
    f.resume();
    EXPECT_DEATH(f.resume(), "finished");
}

TEST(Fiber, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside");
}

TEST(Fiber, InterleavedPairCooperates)
{
    std::vector<int> order;
    Fiber a([&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(10 + i);
            Fiber::yield();
        }
    });
    Fiber b([&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(20 + i);
            Fiber::yield();
        }
    });
    for (int i = 0; i < 3; ++i) {
        a.resume();
        b.resume();
    }
    EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21, 12, 22}));
}

/** 1/3 in double precision under the running rounding mode. */
double
oneThird()
{
    volatile double one = 1.0;
    volatile double three = 3.0;
    return one / three;
}

TEST(Fiber, RoundingModeIsPerContext)
{
    // The floating-point control state is callee-saved and every switch
    // is a call, so each side of a switch keeps its own rounding mode.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    const double nearest = oneThird();
    int mode_after_yield = -1;
    double third_after_yield = 0;
    Fiber f([&] {
        std::fesetround(FE_UPWARD);
        Fiber::yield();
        mode_after_yield = std::fegetround();
        third_after_yield = oneThird();
        std::fesetround(FE_TONEAREST);
    });
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(mode_after_yield, FE_UPWARD);
    EXPECT_GT(third_after_yield, nearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, ManyFibersKeepTheirStacksAcrossYields)
{
    // 64 fibers interleave 1000 yields each; after every yield each
    // checks a 32-byte aligned local written before it.
    constexpr int fibers = 64;
    constexpr int yields = 1000;
    int bad = 0;
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int id = 0; id < fibers; ++id) {
        fs.push_back(std::make_unique<Fiber>(
            [&bad, id] {
                alignas(32) volatile std::uint64_t local[4];
                for (int i = 0; i < yields; ++i) {
                    const std::uint64_t v =
                        static_cast<std::uint64_t>(id) << 32 | i;
                    for (int k = 0; k < 4; ++k)
                        local[k] = v + k;
                    Fiber::yield();
                    if (reinterpret_cast<std::uintptr_t>(local) % 32 != 0)
                        ++bad;
                    for (int k = 0; k < 4; ++k)
                        bad += local[k] != v + k;
                }
            },
            64 * 1024));
    }
    for (int i = 0; i <= yields; ++i) {
        for (auto &f : fs)
            f->resume();
    }
    for (const auto &f : fs)
        EXPECT_TRUE(f->finished());
    EXPECT_EQ(bad, 0);
}

} // namespace
} // namespace swsm
