// Lint self-test fixture (known-bad): defaulted (seq_cst) atomic
// operations in a hot-path file.  The self-test copies this fixture to
// src/obs/metrics.cc inside the synthetic tree, where every atomic op
// must spell its order and justify it -- an implicit seq_cst there is
// either an unjustified fence cost or an unexamined protocol.
#include <atomic>
#include <cstdint>

namespace horizon {

struct HotCell {
  std::atomic<uint64_t> value{0};

  uint64_t Get() const {
    return value.load();
  }

  void Set(uint64_t next) {
    value.store(next);
  }
};

}  // namespace horizon
