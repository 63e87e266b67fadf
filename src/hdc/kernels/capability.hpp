#pragma once
// CPU-capability probing for the kernel policy layer. One plain struct of
// booleans, fillable two ways: probe() reads the real CPU once (cached),
// and tests construct synthetic sets so the policy's capability scoring is
// unit-testable without five kinds of hardware (the HyperStream
// backend/capability.hpp shape). The struct deliberately names only the
// features the backends actually key on — it is a policy input, not a
// general CPUID mirror.

#include <string>

namespace h3dfact::hdc::kernels {

/// The ISA features the kernel backends dispatch on. Defaults are all
/// false so a synthetic set starts from "featureless" and enables exactly
/// what a test wants to model.
struct CpuCapabilities {
  bool sse2 = false;             ///< x86-64 baseline (always true there)
  bool avx2 = false;             ///< 256-bit integer SIMD
  bool avx512f = false;          ///< 512-bit foundation
  bool avx512vpopcntdq = false;  ///< hardware 64-bit lane popcount
  bool avx512bw = false;  ///< byte lanes (the comparator's summed path)
  bool bmi2 = false;             ///< PDEP (the comparator's tie deposit)
  bool neon = false;             ///< aarch64 Advanced SIMD (baseline there)

  /// Human-readable feature list, e.g. "sse2 avx2 avx512f" ("none" when
  /// empty) — what bench/kernels --list-backends prints after the names.
  [[nodiscard]] std::string to_string() const;
};

/// The capabilities of the CPU this process runs on, probed once on first
/// call and cached (the probe itself is cheap but called per dispatch).
[[nodiscard]] const CpuCapabilities& probe();

}  // namespace h3dfact::hdc::kernels
