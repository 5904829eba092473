// Counts the heap allocations the calling thread makes, and the blocks and
// bytes it holds, through a replaced global operator new.  Include from
// exactly one source file of a test binary (the replacements are
// definitions) and read horizon::test::ThreadAllocations(),
// ThreadLiveBlocks(), ThreadLiveBytes() or ThreadPeakLiveBytes() around
// the code under test.
//
// Sanitizer runtimes own operator new, so sanitized builds keep the
// default, define HORIZON_TEST_SANITIZED, and must skip tests that count.
#ifndef HORIZON_TESTS_ALLOC_COUNTER_H_
#define HORIZON_TESTS_ALLOC_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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
inline thread_local std::ptrdiff_t t_live_blocks = 0;
inline thread_local std::ptrdiff_t t_live_bytes = 0;
inline thread_local std::ptrdiff_t t_peak_live_bytes = 0;

/// Allocations the calling thread has made so far.
inline size_t ThreadAllocations() { return t_allocations; }

/// Blocks the calling thread has allocated through operator new, less the
/// blocks it has freed.  A block freed by another thread counts against
/// that thread.
inline std::ptrdiff_t ThreadLiveBlocks() { return t_live_blocks; }

/// Bytes the calling thread has allocated through operator new, less the
/// bytes it has freed: the requested sizes, without allocator overhead.
/// A block freed by another thread counts against that thread.
inline std::ptrdiff_t ThreadLiveBytes() { return t_live_bytes; }

/// The most ThreadLiveBytes() has read since the last
/// ResetThreadPeakLiveBytes(), or since the thread started.
inline std::ptrdiff_t ThreadPeakLiveBytes() { return t_peak_live_bytes; }

/// Starts a new peak at the current ThreadLiveBytes().
inline void ResetThreadPeakLiveBytes() { t_peak_live_bytes = t_live_bytes; }

namespace detail {

// Each block carries its requested size just before the address handed
// out, in a header as wide as the block's alignment.
inline std::size_t HeaderBytes(std::size_t align) {
  return align > alignof(std::max_align_t) ? align : alignof(std::max_align_t);
}

inline void* Allocate(std::size_t size, std::size_t align) {
  const std::size_t header = HeaderBytes(align);
  if (size > SIZE_MAX - 2 * header) throw std::bad_alloc();
  void* base = align > alignof(std::max_align_t)
                   ? std::aligned_alloc(align, (size + header + align - 1) / align * align)
                   : std::malloc(size + header);
  if (base == nullptr) throw std::bad_alloc();
  ++t_allocations;
  ++t_live_blocks;
  t_live_bytes += static_cast<std::ptrdiff_t>(size);
  if (t_live_bytes > t_peak_live_bytes) t_peak_live_bytes = t_live_bytes;
  char* p = static_cast<char*>(base) + header;
  std::memcpy(p - sizeof(size), &size, sizeof(size));
  return p;
}

inline void Free(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  std::size_t size = 0;
  std::memcpy(&size, static_cast<char*>(p) - sizeof(size), sizeof(size));
  --t_live_blocks;
  t_live_bytes -= static_cast<std::ptrdiff_t>(size);
  std::free(static_cast<char*>(p) - HeaderBytes(align));
}

}  // namespace detail
}  // namespace horizon::test

// Every replacement stays out of line: inlined into a caller, its malloc()
// or free() meets the other side's new-expression or delete-expression,
// and GCC's -Wmismatched-new-delete reports the pair.  The array and
// nothrow forms of the standard library call these.
[[gnu::noinline]] void* operator new(std::size_t size) {
  return horizon::test::detail::Allocate(size, alignof(std::max_align_t));
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  return horizon::test::detail::Allocate(size, static_cast<std::size_t>(align));
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  horizon::test::detail::Free(p, alignof(std::max_align_t));
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  horizon::test::detail::Free(p, alignof(std::max_align_t));
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t align) noexcept {
  horizon::test::detail::Free(p, static_cast<std::size_t>(align));
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t align) noexcept {
  horizon::test::detail::Free(p, static_cast<std::size_t>(align));
}
#endif  // HORIZON_TEST_SANITIZED

#endif  // HORIZON_TESTS_ALLOC_COUNTER_H_
