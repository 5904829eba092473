// Lint self-test fixture (known-bad): explicit memory_order sites with
// no `// order:` comment naming the pairing site.
#include <atomic>
#include <cstdint>

namespace horizon {

struct HitCounter {
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> sealed{false};

  void Bump() {
    hits.fetch_add(1, std::memory_order_relaxed);
  }

  void Seal() {
    sealed.store(true, std::memory_order_release);
  }

  uint64_t Read() const {
    if (!sealed.load(std::memory_order_acquire)) {
      return 0;
    }
    return hits.load(std::memory_order_relaxed);
  }
};

}  // namespace horizon
