// Analyzer self-test fixture (known-good): justified atomics, an
// acyclic cross-class lock order, one justified suppression, and an
// exhaustive StatusCode switch.  Expected findings: none.
#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "serving/good_analyzer.h"

namespace horizon {

void GoodJournal::Log(uint64_t value) {
  MutexLock lock(mu_);
  entries_ += value;
  // order: release pairs with the acquire load in GoodJournal::approx;
  // the entry is fully written before the count publishes it.
  logged_.fetch_add(value, std::memory_order_release);
}

class GoodService {
 public:
  uint64_t Sample(GoodJournal& journal) {
    // horizon-analyzer: allow(atomic-order): exercises the suppression
    // grammar; the hint is a statistics estimate with no payload.
    const uint64_t size = hint_.load(std::memory_order_relaxed);
    MutexLock lock(service_mu_);
    journal.Log(size);
    return size;
  }

  static const char* Describe(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "ok";
      case StatusCode::kNotFound: return "not-found";
      case StatusCode::kNotYetLive: return "not-yet-live";
      case StatusCode::kInvalidArgument: return "invalid-argument";
      case StatusCode::kIoError: return "io-error";
      case StatusCode::kCorruption: return "corruption";
      case StatusCode::kConfigMismatch: return "config-mismatch";
      case StatusCode::kAlreadyExists: return "already-exists";
      case StatusCode::kInternal: return "internal";
      case StatusCode::kResourceExhausted: return "resource-exhausted";
    }
    return "unknown";
  }

 private:
  Mutex service_mu_;
  std::atomic<uint64_t> hint_{0};
};

}  // namespace horizon
