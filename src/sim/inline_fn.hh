/**
 * @file
 * Move-only callable with inline storage: the one callback type of the
 * simulator's per-message host path.
 *
 * Every message crosses the event kernel, the network, the message
 * layer and a protocol handler as a chain of closures. std::function
 * heap-allocates any closure over 16 bytes and copies on every hop;
 * InlineFn<R(Args...), N> instead stores a callable of up to N bytes in
 * place, so a closure is constructed once and only ever relocated.
 *
 *  - A trivially copyable callable (most closures: a `this` pointer
 *    and a few ids) relocates by copying the N storage bytes, with no
 *    indirect call; a trivially destructible one has no destroy call.
 *  - Larger callables, or ones that may throw while moving, fall back
 *    to one heap allocation; the sites that must never allocate
 *    static_assert storesInline<F>() on their closure type.
 *  - The storage comes first and the ops pointer last, so N = 16k + 8
 *    gives a 16k + 16 byte object with no padding.
 *
 * The sizes are constants of each alias (EventFn in sim/event_queue.hh,
 * DeliverFn in net/network.hh, HandlerFn and DataFn in comm/handler.hh),
 * not options.
 */

#ifndef SWSM_SIM_INLINE_FN_HH
#define SWSM_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace swsm
{

template <typename Signature, std::size_t N>
class InlineFn;

template <typename R, typename... Args, std::size_t N>
class InlineFn<R(Args...), N>
{
  public:
    static constexpr std::size_t inlineBytes = N;

    /** True when a callable of type @p F is stored in place. */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        return sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<F>;
    }

    InlineFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        construct(std::forward<F>(f));
    }

    InlineFn(InlineFn &&other) noexcept { take(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /**
     * Destroy the current target and construct @p f in its place: the
     * one construction of a callback that is built where it will run.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
            *this = std::forward<F>(f); // an lvalue would need a copy
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(store_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src and destroy src; null when
         *  copying the storage bytes does both. */
        void (*relocate)(void *src, void *dst) noexcept;
        /** Null when the target is trivially destructible. */
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static R
    invokeInline(void *p, Args... args)
    {
        return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    relocateInline(void *src, void *dst) noexcept
    {
        auto *f = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static void
    destroyInline(void *p) noexcept
    {
        static_cast<Fn *>(p)->~Fn();
    }

    template <typename Fn>
    static R
    invokeHeap(void *p, Args... args)
    {
        return (**static_cast<Fn **>(p))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    destroyHeap(void *p) noexcept
    {
        delete *static_cast<Fn **>(p);
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        &invokeInline<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocateInline<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyInline<Fn>,
    };

    /** The heap target's pointer relocates as plain bytes. */
    template <typename Fn>
    static constexpr Ops heapOps = {&invokeHeap<Fn>, nullptr,
                                    &destroyHeap<Fn>};

    /** @pre no target */
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>()) {
            ::new (static_cast<void *>(store_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(store_)) Fn *(
                new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    /** @pre no target */
    void
    take(InlineFn &other) noexcept
    {
        ops_ = other.ops_;
        if (!ops_)
            return;
        if (ops_->relocate)
            ops_->relocate(other.store_, store_);
        else
            std::memcpy(store_, other.store_, N);
        other.ops_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(store_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char store_[N];
    const Ops *ops_ = nullptr;
};

} // namespace swsm

#endif // SWSM_SIM_INLINE_FN_HH
