// NEON backend for aarch64. Advanced SIMD is mandatory in AArch64, so the
// whole translation unit compiles at the baseline ISA (no function target
// attributes) and the factory never has to probe the CPU — it is gated at
// compile time only.

#include "hdc/kernels/backend.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)
#define H3DFACT_KERNELS_NEON 1
#include <arm_neon.h>

#include <bit>
#include <cstdint>
#endif

namespace h3dfact::hdc::kernels {

#if defined(H3DFACT_KERNELS_NEON)

namespace {

// popcount(a XOR b): 16 bytes per step via vcntq_u8, byte counts widened
// pairwise (u8→u16→u32→u64) into a 64-bit accumulator so no lane can
// saturate regardless of nw.
long long xor_popcount_neon(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t nw) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= nw; w += 2) {
    const uint64x2_t va = vld1q_u64(a + w);
    const uint64x2_t vb = vld1q_u64(b + w);
    const uint8x16_t x = vreinterpretq_u8_u64(veorq_u64(va, vb));
    const uint8x16_t cnt = vcntq_u8(x);
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
  }
  long long total = static_cast<long long>(vgetq_lane_u64(acc, 0) +
                                           vgetq_lane_u64(acc, 1));
  for (; w < nw; ++w) total += std::popcount(a[w] ^ b[w]);
  return total;
}

// y[0..n) += a * row[0..n): ±1 int8 rows widened s8→s16→s32, two
// multiply-accumulate lanes of four per step.
void axpy_row_neon(int a, const std::int8_t* row, int* y, std::size_t n) {
  const int32x4_t va = vdupq_n_s32(a);
  std::size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const int16x8_t r16 = vmovl_s8(vld1_s8(row + d));
    const int32x4_t r_lo = vmovl_s16(vget_low_s16(r16));
    const int32x4_t r_hi = vmovl_s16(vget_high_s16(r16));
    int32x4_t y_lo = vld1q_s32(y + d);
    int32x4_t y_hi = vld1q_s32(y + d + 4);
    y_lo = vmlaq_s32(y_lo, va, r_lo);
    y_hi = vmlaq_s32(y_hi, va, r_hi);
    vst1q_s32(y + d, y_lo);
    vst1q_s32(y + d + 4, y_hi);
  }
  for (; d < n; ++d) y[d] += a * row[d];
}

void similarity_tile_neon(const std::uint64_t* rows, std::size_t row_stride,
                          std::size_t nrows,
                          const std::uint64_t* const* queries, std::size_t nq,
                          std::size_t nw, long long dim, int* sims,
                          std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_neon(queries[q], rows + i * row_stride, nw);
      sims[i * sim_stride + q] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

constexpr KernelBackend kNeon{"neon", axpy_row_neon, similarity_tile_neon};

}  // namespace

const KernelBackend* neon_backend() { return &kNeon; }

#else  // !H3DFACT_KERNELS_NEON

const KernelBackend* neon_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
