// Runtime CPU dispatch for the forest traversal kernels.
//
// One binary carries both kernel flavors (scalar, AVX2).  The active
// flavor is the widest one the running CPU executes, detected once;
// BlockForest::PredictStrided gives it the batches it can speed up and
// the rest to the scalar walk.  The two flavors are bit-exact with each
// other (same comparison semantics, same per-row accumulation order), so
// the choice changes speed only.
#ifndef HORIZON_GBDT_SIMD_DISPATCH_H_
#define HORIZON_GBDT_SIMD_DISPATCH_H_

namespace horizon::gbdt {

/// Kernel flavors, narrowest first.
enum class SimdKernel : int {
  kScalar = 0,  ///< portable branchless kernel, any CPU
  kAvx2 = 1,    ///< AVX2 8-wide gather/compare
};

/// Short lowercase name ("scalar", "avx2").
const char* SimdKernelName(SimdKernel kernel);

/// The widest kernel this CPU executes: kAvx2 on an x86-64 CPU with
/// AVX2, kScalar otherwise.  Detected at the first call.
SimdKernel ActiveKernel();

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_SIMD_DISPATCH_H_
