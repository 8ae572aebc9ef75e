#include "core/simd.hpp"

namespace wdm::core {

bool avx2_available() noexcept {
#if defined(WDM_HAVE_AVX2_TU) && defined(__GNUC__)
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

const char* simd_backend() noexcept {
  return avx2_available() ? "mask+avx2" : "mask";
}

}  // namespace wdm::core
