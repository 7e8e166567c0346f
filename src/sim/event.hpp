/**
 * @file
 * Allocation-free closure types for the event engine.
 *
 * The event queue fires tens of millions of closures per wall-clock
 * second; `std::function` heap-allocates every capture larger than its
 * tiny SBO buffer and costs an indirect copy on every queue move.  This
 * header provides `tg::Fn<Sig>`, a move-only small-buffer callable:
 *
 *  - captures up to kInlineBytes live inline in the object, so the hot
 *    schedulers (link pumps, switch forwards, TurboChannel grants, HIB
 *    completions) never touch the allocator;
 *  - larger captures (a lambda holding a whole net::Packet) fall back to
 *    a pooled fixed-size block recycled through a free list, so the
 *    steady-state simulation still performs zero heap allocations per
 *    event once the pool is warm;
 *  - moving a pooled closure steals the block pointer instead of moving
 *    the capture, and an inline capture that is trivially copyable and
 *    trivially destructible (nearly every hot `[this, ints]` lambda) is
 *    moved with one fixed-size memcpy and destroyed by doing nothing —
 *    no call through the ops table at all.
 *
 * `tg::Event` is the `void()` instantiation used by the EventQueue.
 * The pool free list and its counters are thread_local and hold storage
 * only, never model state: several Clusters in one process share a
 * thread's pool without one run's schedule or trace hash depending on
 * what another allocated, and Clusters driven from different host
 * threads each get their own pool, so the fast path stays
 * unsynchronized.
 */

#ifndef TELEGRAPHOS_SIM_EVENT_HPP
#define TELEGRAPHOS_SIM_EVENT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/log.hpp"

namespace tg {

namespace detail {

/**
 * Free list of fixed-size closure blocks.
 *
 * Closures that overflow a Fn's inline buffer are placed in a
 * kBlockBytes-sized block.  Freed blocks go onto a LIFO free list and
 * are handed back to the next oversized capture, so after warm-up the
 * fallback path allocates nothing.  Oversized requests (> kBlockBytes)
 * bypass the pool entirely; no hot-path capture is that large.
 */
class ClosurePool
{
  public:
    static constexpr std::size_t kBlockBytes = 256;

    static void *
    allocate(std::size_t bytes)
    {
        if (bytes > kBlockBytes) {
            ++_oversize;
            return ::operator new(bytes);
        }
        if (_free != nullptr) {
            Block *b = _free;
            _free = b->next;
            ++_reused;
            return b;
        }
        ++_fresh;
        return ::operator new(kBlockBytes);
    }

    static void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes > kBlockBytes) {
            ::operator delete(p);
            return;
        }
        Block *b = static_cast<Block *>(p);
        b->next = _free;
        _free = b;
    }

    /** Fresh kBlockBytes blocks ever requested from the allocator. */
    static std::uint64_t freshBlocks() { return _fresh; }

    /** Blocks served from the free list (zero-allocation path). */
    static std::uint64_t reusedBlocks() { return _reused; }

    /** Requests too large for the pool (plain new/delete). */
    static std::uint64_t oversizeBlocks() { return _oversize; }

  private:
    struct Block
    {
        Block *next;
    };

    // thread_local: one pool per thread, so Clusters on different host
    // threads never share the unsynchronized free list.
    static inline thread_local Block *_free = nullptr;
    static inline thread_local std::uint64_t _fresh = 0;
    static inline thread_local std::uint64_t _reused = 0;
    static inline thread_local std::uint64_t _oversize = 0;
};

} // namespace detail

template <typename Sig>
class Fn;

/**
 * Move-only callable with inline small-buffer storage.
 *
 * Drop-in replacement for `std::function<R(Args...)>` on the simulator's
 * hot paths.  Differences from std::function: move-only (so move-only
 * captures like a latched Packet work), never allocates for captures up
 * to kInlineBytes, pooled fallback beyond that, and invoking an empty Fn
 * panics instead of throwing.
 */
template <typename R, typename... Args>
class Fn<R(Args...)>
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    Fn() noexcept = default;
    Fn(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Fn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    Fn(F &&f)
    {
        init<std::decay_t<F>>(std::forward<F>(f));
    }

    Fn(Fn &&o) noexcept { moveFrom(o); }

    Fn &
    operator=(Fn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    Fn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    Fn(const Fn &) = delete;
    Fn &operator=(const Fn &) = delete;

    /** Replace the target with @p f built right here: a callable's
     *  capture is constructed in this object's storage, with no
     *  temporary Fn to relocate (the event queue builds every closure
     *  in its slot this way); an Fn is moved in. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, Fn>) {
            *this = std::forward<F>(f);
        } else {
            static_assert(std::is_invocable_r_v<R, D &, Args...>,
                          "Fn target has the wrong signature");
            reset();
            init<D>(std::forward<F>(f));
        }
    }

    ~Fn() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Const like std::function::operator(): callers routinely invoke
     *  through const captures; the target itself may still mutate. */
    R
    operator()(Args... args) const
    {
        if (_ops == nullptr)
            panic("invoking an empty tg::Fn");
        return _ops->call(const_cast<Fn &>(*this),
                          std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*call)(Fn &, Args...);
        /** Move the closure of @p src into raw @p dst; src becomes empty
         *  storage (its _ops is handled by the caller).  Null when the
         *  storage bytes can simply be copied (trivial inline captures,
         *  and every pooled closure: its storage is the block pointer). */
        void (*relocate)(Fn &dst, Fn &src) noexcept;
        /** Null when destroying the closure is a no-op. */
        void (*destroy)(Fn &) noexcept;
    };

    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineBytes &&
        alignof(D) <= alignof(std::max_align_t);

    template <typename D>
    D *
    inlineObj() noexcept
    {
        return std::launder(reinterpret_cast<D *>(_buf));
    }

    template <typename D>
    D *
    pooledObj() noexcept
    {
        return static_cast<D *>(_ptr);
    }

    template <typename D>
    struct InlineOps
    {
        static constexpr bool kTrivial =
            std::is_trivially_copyable_v<D> &&
            std::is_trivially_destructible_v<D>;

        static R
        call(Fn &self, Args... args)
        {
            return (*self.template inlineObj<D>())(
                std::forward<Args>(args)...);
        }

        static void
        relocate(Fn &dst, Fn &src) noexcept
        {
            std::construct_at(reinterpret_cast<D *>(dst._buf),
                              std::move(*src.template inlineObj<D>()));
            std::destroy_at(src.template inlineObj<D>());
        }

        static void
        destroy(Fn &self) noexcept
        {
            std::destroy_at(self.template inlineObj<D>());
        }

        static constexpr Ops ops{call, kTrivial ? nullptr : relocate,
                                 kTrivial ? nullptr : destroy};
    };

    template <typename D>
    struct PooledOps
    {
        static R
        call(Fn &self, Args... args)
        {
            return (*self.template pooledObj<D>())(
                std::forward<Args>(args)...);
        }

        static void
        destroy(Fn &self) noexcept
        {
            std::destroy_at(self.template pooledObj<D>());
            detail::ClosurePool::deallocate(self._ptr, sizeof(D));
        }

        // Relocation copies the block pointer with the storage bytes:
        // the block is stolen, the capture never moves.
        static constexpr Ops ops{call, nullptr, destroy};
    };

    template <typename D, typename F>
    void
    init(F &&f)
    {
        // Preserve emptiness of null function pointers / std::functions:
        // call sites guard with `if (cb)` and expect wrapped nulls to
        // stay false.
        if constexpr (std::is_constructible_v<bool, const D &>) {
            if (!static_cast<bool>(f))
                return;
        }
        construct<D>(std::forward<F>(f));
    }

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        static_assert(std::is_move_constructible_v<D>,
                      "Fn captures must be movable");
        if constexpr (kFitsInline<D>) {
            std::construct_at(reinterpret_cast<D *>(_buf),
                              std::forward<F>(f));
            _ops = &InlineOps<D>::ops;
        } else {
            void *p = detail::ClosurePool::allocate(sizeof(D));
            std::construct_at(static_cast<D *>(p), std::forward<F>(f));
            _ptr = p;
            _ops = &PooledOps<D>::ops;
        }
    }

    void
    moveFrom(Fn &o) noexcept
    {
        _ops = o._ops;
        if (_ops != nullptr) {
            if (_ops->relocate != nullptr)
                _ops->relocate(*this, o);
            else
                std::memcpy(_buf, o._buf, kInlineBytes);
            o._ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (_ops != nullptr) {
            if (_ops->destroy != nullptr)
                _ops->destroy(*this);
            _ops = nullptr;
        }
    }

    const Ops *_ops = nullptr;
    // Zeroed on construction: a memcpy relocation copies all kInlineBytes,
    // including the ones a small capture leaves unused.
    union
    {
        alignas(std::max_align_t) std::byte _buf[kInlineBytes]{};
        void *_ptr;
    };
};

/** The event closure fired by the EventQueue. */
using Event = Fn<void()>;

} // namespace tg

#endif // TELEGRAPHOS_SIM_EVENT_HPP
