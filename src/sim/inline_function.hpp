// inline_function.hpp — a small-buffer-optimized move-only callable.
//
// The event queue schedules tens of millions of closures per Table-1
// sweep; with std::function each schedule() pays a heap allocation for
// any capture larger than the libstdc++ SBO (two pointers). InlineFunction
// stores captures up to kInlineCapacity bytes directly inside the object
// — sized so every simulator fan-out event (this + targets + a
// ref-counted packet handle + mode) fits — and falls back to the heap
// only for oversized or throwing-move callables. Dispatch is a single
// static ops-table pointer instead of std::function's vtable machinery.
//
// Semantics: move-only (the queue never copies callbacks), callable
// repeatedly (Timer invokes its stored callback on every expiry), and
// null-testable so call sites keep their `cb != nullptr` checks.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cesrm::sim {

class InlineFunction {
 public:
  /// Inline capture budget. The largest hot-path closure is Network's
  /// fan-out event: {Network*, target pointer, 64-bit target mask,
  /// shared_ptr<const Packet>, NodeId, Mode} = 48 bytes; 64 leaves headroom
  /// for fault-injection closures without bloating the event-queue slot
  /// pool.
  static constexpr std::size_t kInlineCapacity = 64;

  /// True when a callable of type D is stored inline, never on the heap.
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Invokes the stored callable; undefined when null (like std::function
  /// minus the bad_function_call ceremony — the queue checks at schedule).
  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

  /// Destroys the stored callable and returns to the null state.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* p);
    /// Move-constructs into dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* p);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* dst, void* src) {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](void* dst, void* src) {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
  };

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace cesrm::sim
