/**
 * @file
 * Unit tests for the measured parallelism budget (harness/budget.hh):
 * explicit flags stay authoritative and auto jobs clamp to the grid.
 * Threads inside one simulation are not budgeted: SweepOptions takes
 * --sim-threads, else SWSM_SIM_THREADS, else 1, whatever the core and
 * job counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/budget.hh"
#include "harness/sweep.hh"

namespace swsm
{
namespace
{

/** Pins the env knobs the options read; restores them on scope exit. */
class BudgetEnv
{
  public:
    BudgetEnv()
    {
        save("SWSM_SIM_THREADS");
        ::unsetenv("SWSM_SIM_THREADS");
    }

    ~BudgetEnv()
    {
        for (const auto &[name, value] : saved_) {
            if (value.second)
                ::setenv(name.c_str(), value.first.c_str(), 1);
            else
                ::unsetenv(name.c_str());
        }
    }

    void set(const char *name, const char *value)
    {
        ::setenv(name, value, 1);
    }

  private:
    void save(const char *name)
    {
        const char *v = std::getenv(name);
        saved_.emplace_back(name,
                            std::make_pair(v ? std::string(v) : "",
                                           v != nullptr));
    }

    std::vector<std::pair<std::string, std::pair<std::string, bool>>>
        saved_;
};

BudgetRequest
request(int hw, int grid)
{
    BudgetRequest req;
    req.hardwareThreads = hw;
    req.gridItems = grid;
    return req;
}

/** Parse @p args (after a program name) into fresh SweepOptions. */
SweepOptions
parsed(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    SweepOptions opts;
    EXPECT_TRUE(opts.parse(static_cast<int>(argv.size()), argv.data()));
    return opts;
}

TEST(BudgetTest, SimThreadsRunOnlyWhenAsked)
{
    BudgetEnv env;
    // Nothing asked: serial, however many cores a single job leaves.
    SweepOptions opts;
    opts.jobs = 1;
    EXPECT_EQ(opts.effectiveSimThreads(), 1);

    // SWSM_SIM_THREADS is taken as given, even with many jobs.
    env.set("SWSM_SIM_THREADS", "3");
    SweepOptions from_env;
    from_env.jobs = 64;
    EXPECT_EQ(from_env.effectiveSimThreads(), 3);
    ::unsetenv("SWSM_SIM_THREADS");

    // So is an explicit flag.
    EXPECT_EQ(parsed({"--jobs=1", "--sim-threads=5"}).effectiveSimThreads(),
              5);
}

TEST(BudgetTest, ExplicitSimThreadsWin)
{
    BudgetEnv env;
    env.set("SWSM_SIM_THREADS", "2");
    EXPECT_EQ(parsed({"--jobs=4", "--sim-threads=6"}).effectiveSimThreads(),
              6);
}

TEST(BudgetTest, AutoJobsClampToGridAndFeedWorkers)
{
    // Two-item grid on a 16-way host: no point in 16 runner slots.
    EXPECT_EQ(computeBudget(request(16, 2)).jobs, 2);
    // Worker processes need at least one submitting job slot each.
    BudgetRequest req = request(16, 2);
    req.workers = 4;
    const Budget b = computeBudget(req);
    EXPECT_EQ(b.workers, 4);
    EXPECT_GE(b.jobs, 4);
}

TEST(BudgetTest, WorkersAutoMatchesCoresAndGrid)
{
    BudgetRequest req = request(8, 3);
    req.workersAuto = true;
    EXPECT_EQ(computeBudget(req).workers, 3);
    req = request(8, 100);
    req.workersAuto = true;
    EXPECT_EQ(computeBudget(req).workers, 8);
}

TEST(BudgetTest, ExplicitJobsAreNeverGridClamped)
{
    BudgetRequest req = request(16, 2);
    req.jobs = 12;
    req.jobsExplicit = true;
    EXPECT_EQ(computeBudget(req).jobs, 12);
}

TEST(BudgetTest, MeasuredHardwareThreadsHasFloorOfOne)
{
    EXPECT_GE(measuredHardwareThreads(), 1);
}

} // namespace
} // namespace swsm
