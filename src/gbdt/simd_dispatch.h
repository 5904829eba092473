// Runtime CPU dispatch for the forest traversal kernels.
//
// One binary carries both kernel flavors (scalar, AVX2); AVX2 is chosen
// once at startup when the running CPU supports it, and the choice is
// cached.  It can be pinned with the environment variable
//
//   HORIZON_SIMD=scalar|avx2
//
// which is read at first use (so `HORIZON_SIMD=scalar ctest ...` runs a
// whole suite on the fallback path) and re-read by RefreshKernelFromEnv
// (so tests can flip kernels mid-process).  Requesting a flavor the CPU
// cannot execute clamps down to the widest supported one; an unrecognized
// value falls back to auto-detection.  The two flavors are bit-exact with
// each other (same comparison semantics, same per-row accumulation
// order), so the selection is purely a speed knob.
#ifndef HORIZON_GBDT_SIMD_DISPATCH_H_
#define HORIZON_GBDT_SIMD_DISPATCH_H_

#include <vector>

namespace horizon::gbdt {

/// Kernel flavors in increasing width; the numeric order is meaningful
/// (clamping picks the largest supported value <= the requested one).
enum class SimdKernel : int {
  kScalar = 0,  ///< portable branchless kernel, any CPU
  kAvx2 = 1,    ///< AVX2 8-wide gather/compare
};

/// Short lowercase name ("scalar", "avx2") -- matches the
/// HORIZON_SIMD value that selects the flavor.
const char* SimdKernelName(SimdKernel kernel);

/// Widest kernel this CPU can execute (env override ignored).
SimdKernel DetectBestKernel();

/// Every kernel this CPU can execute, narrowest first.
std::vector<SimdKernel> SupportedKernels();

/// The kernel the traversal entry points will use: the HORIZON_SIMD
/// override if set and recognized (clamped to supported), otherwise
/// DetectBestKernel().  Resolved once and cached; wait-free afterwards.
SimdKernel ActiveKernel();

/// Re-reads HORIZON_SIMD and recomputes the cached choice.  Returns the
/// new active kernel.  For tests and benchmarks that flip the override
/// mid-process; production code never needs it.
SimdKernel RefreshKernelFromEnv();

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_SIMD_DISPATCH_H_
