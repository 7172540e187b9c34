#ifndef GOALREC_UTIL_DEFAULT_INIT_ALLOCATOR_H_
#define GOALREC_UTIL_DEFAULT_INIT_ALLOCATOR_H_

#include <memory>
#include <new>
#include <utility>

namespace goalrec::util {

/// std::allocator whose value-initialising construct() default-initialises
/// instead, so std::vector<T, DefaultInitAllocator<T>>::resize(n) leaves
/// trivial elements unwritten. For arrays that one pass then fills whole,
/// possibly on several threads: each page is first touched by the thread
/// that fills it, instead of being zeroed once by the resizing thread first.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_DEFAULT_INIT_ALLOCATOR_H_
