// Counts the heap allocations the calling thread makes, through a
// replaced global operator new.  Include from exactly one source file of
// a test binary (the replacements are definitions) and read
// horizon::test::ThreadAllocations() around the code under test.
//
// Sanitizer runtimes own operator new, so sanitized builds keep the
// default, define HORIZON_TEST_SANITIZED, and must skip tests that count.
#ifndef HORIZON_TESTS_ALLOC_COUNTER_H_
#define HORIZON_TESTS_ALLOC_COUNTER_H_

#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HORIZON_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HORIZON_TEST_SANITIZED 1
#endif
#endif

#ifndef HORIZON_TEST_SANITIZED
namespace horizon::test {
inline thread_local size_t t_allocations = 0;

/// Allocations the calling thread has made so far.
inline size_t ThreadAllocations() { return t_allocations; }
}  // namespace horizon::test

// Every replacement stays out of line: inlined into a caller, its malloc()
// or free() meets the other side's new-expression or delete-expression,
// and GCC's -Wmismatched-new-delete reports the pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++horizon::test::t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  ++horizon::test::t_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
#endif  // HORIZON_TEST_SANITIZED

#endif  // HORIZON_TESTS_ALLOC_COUNTER_H_
