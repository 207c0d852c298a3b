#include "fiber.hh"

#include <cstdint>

#include "sim/log.hh"

// ThreadSanitizer needs to be told about user-level context switches
// (the fiber API); otherwise the stack switches below look like a
// single thread racing against its own stack.
#if defined(__SANITIZE_THREAD__)
#define SWSM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SWSM_TSAN_FIBERS 1
#endif
#endif

#ifdef SWSM_TSAN_FIBERS
extern "C" {
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
void *__tsan_get_current_fiber(void);
}
#endif

// AddressSanitizer likewise tracks which stack is live, for its stack
// bounds and its fake stacks (detect_stack_use_after_return).
#if defined(__SANITIZE_ADDRESS__)
#define SWSM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWSM_ASAN_FIBERS 1
#endif
#endif

#ifdef SWSM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void **fake_stack_save,
                                    const void *bottom, std::size_t size);
void __sanitizer_finish_switch_fiber(void *fake_stack_save,
                                     const void **bottom_old,
                                     std::size_t *size_old);
}
#endif

#if defined(__x86_64__)
// swsm_fiber_switch(void **save, void *load) pushes the SysV
// callee-saved registers, MXCSR and the x87 control word, stores the
// stack pointer in *save, loads the stack pointer load and pops the
// same frame off that stack. Everything else is caller-saved, because
// every switch is a call. A new fiber's first frame, built in the
// constructor, returns into swsm_fiber_entry, which calls r12(rbx):
// Fiber::entry(this). Its return address is undefined in the unwind
// table, so unwinders and debuggers stop at the bottom of a fiber.
asm(R"(
    .pushsection .text
    .globl swsm_fiber_switch
    .hidden swsm_fiber_switch
    .type swsm_fiber_switch, @function
    .p2align 4
swsm_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size swsm_fiber_switch, .-swsm_fiber_switch

    .globl swsm_fiber_entry
    .hidden swsm_fiber_entry
    .type swsm_fiber_entry, @function
    .p2align 4
swsm_fiber_entry:
    .cfi_startproc
    .cfi_undefined rip
    movq %rbx, %rdi
    callq *%r12
    ud2
    .cfi_endproc
    .size swsm_fiber_entry, .-swsm_fiber_entry
    .popsection
)");

extern "C" {
void swsm_fiber_switch(void **save, void *load);
void swsm_fiber_entry();
}
#endif

namespace swsm
{

namespace
{
thread_local Fiber *current_fiber = nullptr;

inline void *
tsanCreateFiber()
{
#ifdef SWSM_TSAN_FIBERS
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

inline void
tsanDestroyFiber(void *fiber)
{
#ifdef SWSM_TSAN_FIBERS
    if (fiber)
        __tsan_destroy_fiber(fiber);
#else
    (void)fiber;
#endif
}

inline void *
tsanCurrentFiber()
{
#ifdef SWSM_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

/** Announce the switch; must run immediately before switchContext. */
inline void
tsanSwitchTo(void *fiber)
{
#ifdef SWSM_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

/**
 * Announce a switch to the stack [bottom, bottom + size). A null
 * @p fake_stack_save tells ASan the stack being left is finished.
 */
inline void
asanStartSwitch(void **fake_stack_save, const void *bottom,
                std::size_t size)
{
#ifdef SWSM_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

/** Complete a switch, first thing on the new stack. */
inline void
asanFinishSwitch(void *fake_stack_save, const void **bottom_old,
                 std::size_t *size_old)
{
#ifdef SWSM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
    (void)fake_stack_save;
    (void)bottom_old;
    (void)size_old;
#endif
}

} // namespace

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body(std::move(body)), stack(new char[stack_bytes]),
      stackBytes(stack_bytes)
{
#if defined(__x86_64__)
    // The frame swsm_fiber_switch pops, lowest address first: MXCSR and
    // x87 control word, r15, r14, r13, r12, rbx, rbp, return address.
    // It leaves rsp at the 16-byte aligned stack top, so the call in
    // swsm_fiber_entry enters Fiber::entry as the ABI requires. The
    // fiber starts with its creator's floating-point control state.
    const auto top =
        reinterpret_cast<std::uintptr_t>(stack.get() + stack_bytes) &
        ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uint64_t *>(top) - 8;
    std::uint32_t mxcsr;
    std::uint16_t fpucw;
    asm("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
    frame[0] = mxcsr | std::uint64_t{fpucw} << 32;
    frame[1] = frame[2] = frame[3] = 0;
    frame[4] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);
    frame[5] = reinterpret_cast<std::uintptr_t>(this);
    frame[6] = 0;
    frame[7] = reinterpret_cast<std::uintptr_t>(&swsm_fiber_entry);
    context = frame;
#else
    if (getcontext(&context) != 0)
        SWSM_PANIC("getcontext failed");
    context.uc_stack.ss_sp = stack.get();
    context.uc_stack.ss_size = stack_bytes;
    context.uc_link = nullptr;

    // makecontext only passes int-sized arguments portably; split the
    // object pointer into two 32-bit halves.
    auto self = reinterpret_cast<std::uintptr_t>(this);
    unsigned hi = static_cast<unsigned>(self >> 32);
    unsigned lo = static_cast<unsigned>(self & 0xffffffffu);
    makecontext(&context, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                2, hi, lo);
#endif
    tsanFiber = tsanCreateFiber();
}

Fiber::~Fiber()
{
    if (running_)
        SWSM_PANIC("destroying a running fiber");
    tsanDestroyFiber(tsanFiber);
}

void
Fiber::switchContext(Context &save, const Context &load)
{
#if defined(__x86_64__)
    swsm_fiber_switch(&save, load);
#else
    swapcontext(&save, &load);
#endif
}

#if !defined(__x86_64__)
void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    entry(reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo)));
}
#endif

void
Fiber::entry(Fiber *self)
{
    asanFinishSwitch(nullptr, &self->asanReturnBottom,
                     &self->asanReturnSize);
    self->run();
}

void
Fiber::run()
{
    body();
    finished_ = true;
    running_ = false;
    // Final switch back to the resumer; never returns here.
    tsanSwitchTo(tsanReturnFiber);
    asanStartSwitch(nullptr, asanReturnBottom, asanReturnSize);
    switchContext(context, returnContext);
    SWSM_PANIC("resumed a finished fiber body");
}

void
Fiber::resume()
{
    if (finished_)
        SWSM_PANIC("resume() on a finished fiber");
    if (running_)
        SWSM_PANIC("resume() on the running fiber");
    Fiber *prev = current_fiber;
    current_fiber = this;
    running_ = true;
    tsanReturnFiber = tsanCurrentFiber();
    void *fake_stack = nullptr;
    asanStartSwitch(&fake_stack, stack.get(), stackBytes);
    tsanSwitchTo(tsanFiber);
    switchContext(returnContext, context);
    asanFinishSwitch(fake_stack, nullptr, nullptr);
    current_fiber = prev;
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    if (!self)
        SWSM_PANIC("Fiber::yield() outside any fiber");
    self->running_ = false;
    void *fake_stack = nullptr;
    asanStartSwitch(&fake_stack, self->asanReturnBottom,
                    self->asanReturnSize);
    tsanSwitchTo(self->tsanReturnFiber);
    switchContext(self->context, self->returnContext);
    // The next resume may come from a different stack.
    asanFinishSwitch(fake_stack, &self->asanReturnBottom,
                     &self->asanReturnSize);
    self->running_ = true;
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

} // namespace swsm
