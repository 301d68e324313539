/**
 * @file
 * InlineCallback: the engine's small-buffer-optimized closure type.
 *
 * The simulation hot path creates one closure per event and one per
 * physical disk operation. std::function is the wrong tool there: its
 * small-object buffer is tiny (16 bytes in libstdc++), so the common
 * captures -- a component pointer plus a handle or a timestamp --
 * fall back to the heap, and its copyability drags in allocation on
 * every copy. InlineCallback stores captures up to kInlineSize bytes
 * in place, is move-only (closures are dispatched exactly once from
 * exactly one place), and falls back to a single heap cell only for
 * oversized captures, so steady-state scheduling allocates nothing.
 *
 * The type erasure is two function pointers: invoke, and a destroy
 * hook that only heap-backed closures install. Inline storage is
 * restricted to trivially copyable, trivially destructible captures
 * -- pointers, integers, doubles, PODs -- precisely so that a move is
 * a raw copy of the buffer and destruction is a no-op: the steady
 * state path (construct in the event pool, move out, fire, destroy)
 * makes exactly one indirect call, the invoke itself.
 * Closures capturing non-trivially-copyable state (std::function,
 * std::string, vectors) take the heap cell automatically.
 */

#ifndef PDDL_SIM_CALLBACK_HH
#define PDDL_SIM_CALLBACK_HH

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace pddl {

/** Move-only `void()` closure with inline storage for small captures. */
class InlineCallback
{
  public:
    /** Inline capture capacity: six words covers every engine closure. */
    static constexpr size_t kInlineSize = 48;

    InlineCallback() = default;

    template <
        typename F,
        typename = std::enable_if_t<
            !std::is_same_v<std::decay_t<F>, InlineCallback> &&
            std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineCallback(F &&callable) // NOLINT: implicit by design
    {
        construct(std::forward<F>(callable));
    }

    /**
     * An empty std::function converts to an empty callback (the
     * generic constructor would wrap it, turning `if (cb)` truthy for
     * a closure that throws bad_function_call when fired).
     */
    InlineCallback(std::function<void()> fn)
    {
        if (fn)
            construct([f = std::move(fn)] { f(); });
    }

    InlineCallback(InlineCallback &&other) noexcept { steal(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            steal(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    void
    operator()()
    {
        assert(invoke_ != nullptr && "calling an empty callback");
        invoke_(&storage_);
    }

    /**
     * Replace the held closure with `callable`, building it directly
     * in this object's storage: the event queue's pool slots take
     * their closures this way, with no temporary to relocate. An
     * InlineCallback argument is moved in; a std::function converts
     * as the constructor does.
     */
    template <typename F>
    void
    emplace(F &&callable)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, InlineCallback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "move an InlineCallback in");
            *this = std::move(callable);
        } else if constexpr (std::is_same_v<Fn, std::function<void()>>) {
            *this = InlineCallback(Fn(std::forward<F>(callable)));
        } else {
            reset();
            construct(std::forward<F>(callable));
        }
    }

    /** Destroy the held closure (no-op when empty or inline). */
    void
    reset()
    {
        if (destroy_ != nullptr)
            destroy_(&storage_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

    /** True when a callable of type F would use the inline buffer. */
    template <typename F>
    static constexpr bool
    storedInline()
    {
        return fitsInline<std::decay_t<F>>();
    }

  private:
    union Storage
    {
        alignas(std::max_align_t) unsigned char
            inline_bytes[kInlineSize];
        void *heap;
    };

    /**
     * Inline storage demands trivially-relocatable captures because
     * moves memcpy the buffer (see file comment). Trivial
     * copyability is the conservative stand-in the standard offers.
     */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_trivially_copyable_v<Fn> &&
               std::is_trivially_destructible_v<Fn>;
    }

    /** Build `callable` into an empty callback's storage. */
    template <typename F>
    void
    construct(F &&callable)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (storage_.inline_bytes)
                Fn(std::forward<F>(callable));
            invoke_ = &invokeInline<Fn>;
            // No destroy hook: trivially destructible by construction.
        } else {
            storage_.heap = new Fn(std::forward<F>(callable));
            invoke_ = &invokeHeap<Fn>;
            destroy_ = &destroyHeap<Fn>;
        }
    }

    using Invoke = void (*)(Storage *);
    using Destroy = void (*)(Storage *);

    template <typename Fn>
    static void
    invokeInline(Storage *storage)
    {
        (*reinterpret_cast<Fn *>(storage->inline_bytes))();
    }

    template <typename Fn>
    static void
    invokeHeap(Storage *storage)
    {
        (*static_cast<Fn *>(storage->heap))();
    }

    template <typename Fn>
    static void
    destroyHeap(Storage *storage)
    {
        delete static_cast<Fn *>(storage->heap);
    }

    /**
     * Relocation is uniform -- a raw copy of the whole storage union
     * moves an inline closure (trivially relocatable by construction)
     * and a heap closure (just the pointer) alike; clearing the
     * source's hooks transfers ownership. No indirect call.
     */
    void
    steal(InlineCallback &other)
    {
        storage_ = other.storage_;
        invoke_ = other.invoke_;
        destroy_ = other.destroy_;
        other.invoke_ = nullptr;
        other.destroy_ = nullptr;
    }

    Storage storage_;
    Invoke invoke_ = nullptr;
    Destroy destroy_ = nullptr;
};

} // namespace pddl

#endif // PDDL_SIM_CALLBACK_HH
