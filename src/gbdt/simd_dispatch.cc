#include "gbdt/simd_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace horizon::gbdt {

namespace {

#if defined(__x86_64__) || defined(__i386__)
SimdKernel DetectBestKernelUncached() {
  // __builtin_cpu_supports consults cpuid once (glibc caches the result).
  return __builtin_cpu_supports("avx2") ? SimdKernel::kAvx2
                                        : SimdKernel::kScalar;
}
#else
SimdKernel DetectBestKernelUncached() { return SimdKernel::kScalar; }
#endif

/// Parses a HORIZON_SIMD value; returns false when unrecognized (caller
/// falls back to auto-detection).
bool ParseKernelName(const char* name, SimdKernel* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdKernel::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = SimdKernel::kAvx2;
    return true;
  }
  return false;
}

SimdKernel ResolveFromEnv() {
  const SimdKernel best = DetectBestKernelUncached();
  if (const char* env = std::getenv("HORIZON_SIMD")) {
    SimdKernel requested;
    if (ParseKernelName(env, &requested)) {
      // Clamp to what the CPU can actually run.
      return static_cast<int>(requested) <= static_cast<int>(best) ? requested
                                                                   : best;
    }
  }
  return best;
}

/// Cached choice; -1 means "not resolved yet".  Plain atomic (not a lock):
/// a racing first resolution computes the same value on every thread.
std::atomic<int> g_active{-1};

}  // namespace

const char* SimdKernelName(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar: return "scalar";
    case SimdKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdKernel DetectBestKernel() { return DetectBestKernelUncached(); }

std::vector<SimdKernel> SupportedKernels() {
  std::vector<SimdKernel> out;
  const int best = static_cast<int>(DetectBestKernelUncached());
  for (int k = 0; k <= best; ++k) out.push_back(static_cast<SimdKernel>(k));
  return out;
}

SimdKernel ActiveKernel() {
  // order: relaxed; g_active is a self-contained enum cache -- racing
  // initializers compute the same value from the same CPU/env, so no
  // other memory needs to be published with it.
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(ResolveFromEnv());
    // order: relaxed; same value from any thread, no payload (pairs
    // with the relaxed load above).
    g_active.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdKernel>(cached);
}

SimdKernel RefreshKernelFromEnv() {
  const SimdKernel resolved = ResolveFromEnv();
  // order: relaxed; test-only refresh of the enum cache, paired with
  // the relaxed load in ActiveKernel.
  g_active.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

}  // namespace horizon::gbdt
