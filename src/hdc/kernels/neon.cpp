// NEON backend for aarch64. Advanced SIMD is mandatory in AArch64, so the
// whole translation unit compiles at the baseline ISA (no function target
// attributes) and the factory never has to probe the CPU — it is gated at
// compile time only.

#include "hdc/kernels/backend.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)
#define H3DFACT_KERNELS_NEON 1
#include <arm_neon.h>

#include <algorithm>
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

// y = C − Σ_j 2c_j·bit_j with a word's 64 sums in sixteen registers:
// VTST sets lane i of a group to all ones when its bit of the word's
// 32-bit half is set, which masks 2c_j into the lane's sum. A partial last
// word goes through a stack copy.
void project_rows_neon(const std::uint64_t* const* rows, const int* coeffs,
                       std::size_t k, std::size_t n, int* y) {
  std::uint32_t total = 0;  // C, wrapping like the sums
  for (std::size_t j = 0; j < k; ++j) {
    total += static_cast<std::uint32_t>(coeffs[j]);
  }
  const int32x4_t vtotal = vdupq_n_s32(static_cast<int>(total));
  // Group g holds bits 4g..4g+3 of a half: lane i tests bit 4g + i.
  static const std::uint32_t kBit0[4] = {1, 2, 4, 8};
  uint32x4_t bit[8];
  for (int g = 0; g < 8; ++g) {
    bit[g] = vshlq_u32(vld1q_u32(kBit0), vdupq_n_s32(4 * g));
  }
  int tail[64] = {};  // a partial last word's sums
  for (std::size_t w = 0; w * 64 < n; ++w) {
    int32x4_t acc[16];
    for (auto& a : acc) a = vdupq_n_s32(0);
    for (std::size_t j = 0; j < k; ++j) {
      if (coeffs[j] == 0) continue;
      const int32x4_t c2 = vdupq_n_s32(
          static_cast<int>(2u * static_cast<std::uint32_t>(coeffs[j])));
      const std::uint64_t bits = rows[j][w];
      for (int h = 0; h < 2; ++h) {
        const uint32x4_t half =
            vdupq_n_u32(static_cast<std::uint32_t>(bits >> (32 * h)));
        for (int g = 0; g < 8; ++g) {
          const int32x4_t mask = vreinterpretq_s32_u32(vtstq_u32(half, bit[g]));
          acc[8 * h + g] = vaddq_s32(acc[8 * h + g], vandq_s32(mask, c2));
        }
      }
    }
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    int* out = len == 64 ? y + w * 64 : tail;
    for (int g = 0; g < 16; ++g) {
      vst1q_s32(out + 4 * g, vsubq_s32(vtotal, acc[g]));
    }
    if (len < 64) std::copy_n(tail, len, y + w * 64);
  }
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

}  // namespace

// AArch64 has no bit deposit outside SVE2: the slot takes the scalar loop.
const KernelBackend* neon_backend() {
  static const KernelBackend kNeon{"neon", project_rows_neon,
                                   similarity_tile_neon, sign_bits_neon,
                                   scalar_backend()->deposit};
  return &kNeon;
}

#else  // !H3DFACT_KERNELS_NEON

const KernelBackend* neon_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
