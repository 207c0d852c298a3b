#include "budget.hh"

#include <algorithm>
#include <thread>

#include "harness/sweep.hh"

namespace swsm
{

int
measuredHardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

Budget
computeBudget(const BudgetRequest &req)
{
    Budget out;
    const int hw = req.hardwareThreads > 0 ? req.hardwareThreads
                                           : measuredHardwareThreads();
    // "Unknown grid" means "at least as wide as the machine".
    const int demand = req.gridItems > 0 ? req.gridItems : hw;

    if (req.workersAuto)
        out.workers = std::clamp(std::min(hw, demand), 1, maxWorkerProcs);
    else
        out.workers = std::max(0, std::min(req.workers, maxWorkerProcs));

    const int askedJobs = std::min(req.jobs > 0 ? req.jobs : hw, maxJobs);
    if (req.jobsExplicit) {
        out.jobs = std::max(1, askedJobs);
    } else {
        out.jobs = std::max(1, std::min(askedJobs, demand));
        // Every in-flight worker job needs a submitting slot.
        if (out.workers > 0)
            out.jobs = std::max(out.jobs, std::min(out.workers, maxJobs));
    }
    return out;
}

} // namespace swsm
