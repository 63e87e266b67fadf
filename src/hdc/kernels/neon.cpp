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
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

// 16 lane masks (0 or all ones per 32-bit lane) to 16 bits, lane k at
// bit k: narrow to bytes, keep one weight bit per byte and add each
// half's eight bytes.
inline std::uint64_t bits16_neon(uint32x4_t m0, uint32x4_t m1, uint32x4_t m2,
                                 uint32x4_t m3) {
  static const std::uint8_t kWeights[16] = {1, 2, 4,  8,  16, 32, 64, 128,
                                            1, 2, 4,  8,  16, 32, 64, 128};
  const uint16x8_t lo = vcombine_u16(vmovn_u32(m0), vmovn_u32(m1));
  const uint16x8_t hi = vcombine_u16(vmovn_u32(m2), vmovn_u32(m3));
  const uint8x16_t bits = vandq_u8(vcombine_u8(vmovn_u16(lo), vmovn_u16(hi)),
                                   vld1q_u8(kWeights));
  return static_cast<std::uint64_t>(vaddv_u8(vget_low_u8(bits))) |
         (static_cast<std::uint64_t>(vaddv_u8(vget_high_u8(bits))) << 8);
}

// Whole 64-element words, 16 lanes per step; a partial last word goes to
// the scalar reference.
void sign_bits_neon(const int* y, std::size_t n, std::uint64_t* neg,
                    std::uint64_t* zero) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t neg_w = 0;
    std::uint64_t zero_w = 0;
    for (std::size_t j = 0; j < 64; j += 16) {
      const int32x4_t v0 = vld1q_s32(y + i + j);
      const int32x4_t v1 = vld1q_s32(y + i + j + 4);
      const int32x4_t v2 = vld1q_s32(y + i + j + 8);
      const int32x4_t v3 = vld1q_s32(y + i + j + 12);
      neg_w |= bits16_neon(vcltzq_s32(v0), vcltzq_s32(v1), vcltzq_s32(v2),
                           vcltzq_s32(v3))
               << j;
      zero_w |= bits16_neon(vceqzq_s32(v0), vceqzq_s32(v1), vceqzq_s32(v2),
                            vceqzq_s32(v3))
                << j;
    }
    neg[i / 64] = neg_w;
    zero[i / 64] = zero_w;
  }
  if (i < n) {
    scalar_backend()->sign_bits(y + i, n - i, neg + i / 64, zero + i / 64);
  }
}

constexpr KernelBackend kNeon{"neon", axpy_row_neon, similarity_tile_neon,
                              sign_bits_neon};

}  // namespace

const KernelBackend* neon_backend() { return &kNeon; }

#else  // !H3DFACT_KERNELS_NEON

const KernelBackend* neon_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
