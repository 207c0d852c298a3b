/**
 * @file
 * Core of the protocol conformance harness: runtime invariant checking
 * and deterministic fault injection.
 *
 * Invariant checks live inside the protocol and network layers behind
 * the SWSM_INVARIANT macro. They are compiled in only under the
 * SWSM_CHECK CMake option (-DSWSM_CHECK=ON); without it the macro
 * expands to nothing and the condition is never evaluated, so release
 * builds pay zero cost. A violated invariant throws InvariantViolation,
 * which the litmus/fuzz drivers (check/litmus.hh, check/fuzz.hh) turn
 * into a replayable failure report.
 *
 * Fault injection is the harness's self-test: a FaultPlan asks a
 * protocol to misbehave in a targeted way (drop diff application, skip
 * an invalidation) so tests can demonstrate that the litmus oracles and
 * invariant checkers actually catch real coherence bugs. The plan is
 * always compiled (it is one branch on a cold path) so the mutation
 * tests run in every build, with or without SWSM_CHECK.
 */

#ifndef SWSM_CHECK_CHECK_HH
#define SWSM_CHECK_CHECK_HH

#include <stdexcept>
#include <string>

namespace swsm
{
namespace check
{

/** True when the SWSM_CHECK CMake option compiled the checkers in. */
#ifdef SWSM_CHECK
inline constexpr bool compiledIn = true;
#else
inline constexpr bool compiledIn = false;
#endif

/** Thrown when a runtime invariant check fails (a protocol bug). */
class InvariantViolation : public std::runtime_error
{
  public:
    explicit InvariantViolation(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Runtime toggle for the compiled-in checkers (default on). */
bool runtimeEnabled();
void setRuntimeEnabled(bool on);

/** True when invariants are compiled in and enabled. */
inline bool
enabled()
{
    return compiledIn && runtimeEnabled();
}

/** Format a message and throw InvariantViolation. */
[[noreturn]] void violation(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Deterministic protocol mutations for harness self-tests. Each flag
 * makes one protocol skip one semantic step while keeping all timing
 * and message flow intact, so a correct harness must detect the
 * resulting data corruption (oracle) or state inconsistency
 * (invariant checker).
 */
struct FaultPlan
{
    /** HLRC: receive diffs at the home but never apply their words. */
    bool dropDiffApply = false;
    /** SC: ack invalidations without actually invalidating the copy. */
    bool skipScInvalidate = false;

    bool
    any() const
    {
        return dropDiffApply || skipScInvalidate;
    }
};

/** The process-wide fault plan (default: no faults). */
FaultPlan &faultPlan();

/** RAII: install a fault plan, restore the previous one on scope exit. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan &plan) : saved(faultPlan())
    {
        faultPlan() = plan;
    }
    ~ScopedFaultPlan() { faultPlan() = saved; }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

  private:
    FaultPlan saved;
};

} // namespace check
} // namespace swsm

/**
 * Check a protocol/network invariant. Compiled in only under the
 * SWSM_CHECK CMake option; otherwise the condition is never evaluated.
 * On failure throws check::InvariantViolation with the printf-style
 * message.
 */
#define SWSM_INVARIANT(cond, ...)                                       \
    do {                                                                \
        if (::swsm::check::enabled() && !(cond))                        \
            ::swsm::check::violation(__VA_ARGS__);                      \
    } while (0)

#endif // SWSM_CHECK_CHECK_HH
