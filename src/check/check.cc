#include "check.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace swsm
{
namespace check
{

namespace
{
FaultPlan fault_plan;
} // namespace

void
violation(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::vector<char> buf(n > 0 ? n + 1 : 1, '\0');
    if (n > 0)
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
    va_end(args);
    throw InvariantViolation(std::string("invariant violated: ") +
                             buf.data());
}

FaultPlan &
faultPlan()
{
    return fault_plan;
}

} // namespace check
} // namespace swsm
