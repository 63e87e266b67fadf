#include "hdc/kernels/capability.hpp"

namespace h3dfact::hdc::kernels {

std::string CpuCapabilities::to_string() const {
  std::string out;
  auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(sse2, "sse2");
  add(avx2, "avx2");
  add(avx512f, "avx512f");
  add(avx512vpopcntdq, "avx512vpopcntdq");
  add(bmi2, "bmi2");
  add(neon, "neon");
  if (out.empty()) out = "none";
  return out;
}

namespace {

CpuCapabilities probe_once() {
  CpuCapabilities caps;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // SSE2 is baseline in the x86-64 ABI; the rest come from CPUID leaves.
  caps.sse2 = true;
  caps.avx2 = __builtin_cpu_supports("avx2");
  caps.avx512f = __builtin_cpu_supports("avx512f");
  caps.avx512vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq");
  caps.bmi2 = __builtin_cpu_supports("bmi2");
#elif defined(__aarch64__) || defined(_M_ARM64)
  // Advanced SIMD is mandatory in AArch64: no runtime probe needed.
  caps.neon = true;
#endif
  return caps;
}

}  // namespace

const CpuCapabilities& probe() {
  static const CpuCapabilities caps = probe_once();
  return caps;
}

}  // namespace h3dfact::hdc::kernels
