/**
 * @file
 * Cooperative fibers for execution-driven simulation.
 *
 * Each simulated processor runs its application thread on a Fiber; the
 * discrete-event scheduler resumes fibers in simulated-time order. This
 * plays the role the augmint execution-driven front end plays in the
 * paper: application code runs natively and interacts with the timing
 * model only at shared accesses and synchronization points.
 *
 * Fibers are strictly cooperative and single-OS-thread; there is no
 * preemption and no locking, which keeps simulations deterministic.
 *
 * Every switch is an ordinary function call, so it only has to keep
 * what the calling convention makes callee-saved. On x86-64 a short
 * assembly routine (fiber.cc) saves the SysV callee-saved registers,
 * MXCSR and the x87 control word on the stack it leaves; glibc's
 * swapcontext would also save the signal mask, one system call per
 * switch. Other architectures use ucontext.
 */

#ifndef SWSM_FIBER_FIBER_HH
#define SWSM_FIBER_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace swsm
{

/**
 * A cooperative fiber with its own stack.
 *
 * Lifecycle: constructed with a body function; resume() switches into it;
 * the body calls Fiber::yield() to switch back to the resumer. When the
 * body returns, the fiber becomes finished() and further resumes panic.
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    /**
     * @param body function executed on the fiber
     * @param stack_bytes fiber stack size (default 256 KiB)
     */
    explicit Fiber(Body body, std::size_t stack_bytes = 256 * 1024);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the calling context into this fiber. Returns when the
     * fiber yields or its body returns.
     * @pre !finished() and not currently running
     */
    void resume();

    /** True once the body function has returned. */
    bool finished() const { return finished_; }

    /** True while the fiber is the running context. */
    bool running() const { return running_; }

    /**
     * Switch from the running fiber back to its resumer.
     * @pre called from inside a fiber body
     */
    static void yield();

    /** The fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

  private:
#if defined(__x86_64__)
    /** A suspended context is its stack pointer; the rest is on the stack. */
    using Context = void *;
#else
    using Context = ucontext_t;
    static void trampoline(unsigned hi, unsigned lo);
#endif

    /** Save the running context in @p save and continue in @p load. */
    static void switchContext(Context &save, const Context &load);
    /** First code run on a new fiber's stack. */
    static void entry(Fiber *self);
    void run();

    Body body;
    std::unique_ptr<char[]> stack;
    std::size_t stackBytes;
    /** This fiber's saved context while it is suspended. */
    Context context{};
    /** The resumer's saved context while this fiber runs. */
    Context returnContext{};
    /**
     * ThreadSanitizer's shadow context for this fiber and for the
     * resumer we switch back to (TSan fiber API). Null in non-TSan
     * builds; without these annotations TSan misreads every stack
     * switch as one thread racing itself.
     */
    void *tsanFiber = nullptr;
    void *tsanReturnFiber = nullptr;
    /**
     * The resumer's stack, as AddressSanitizer reports it when this
     * fiber is entered (ASan fiber API); unused in non-ASan builds.
     */
    const void *asanReturnBottom = nullptr;
    std::size_t asanReturnSize = 0;
    bool finished_ = false;
    bool running_ = false;
};

} // namespace swsm

#endif // SWSM_FIBER_FIBER_HH
