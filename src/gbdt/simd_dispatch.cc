#include "gbdt/simd_dispatch.h"

namespace horizon::gbdt {

const char* SimdKernelName(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar: return "scalar";
    case SimdKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdKernel ActiveKernel() {
#if defined(__x86_64__)
  // The AVX2 kernel is built for x86-64 only (forest_kernels.cc).
  static const SimdKernel kernel = __builtin_cpu_supports("avx2")
                                       ? SimdKernel::kAvx2
                                       : SimdKernel::kScalar;
  return kernel;
#else
  return SimdKernel::kScalar;
#endif
}

}  // namespace horizon::gbdt
