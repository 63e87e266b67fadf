// AVX2 backend. The translation unit compiles at the baseline ISA —
// function-level target attributes keep the binary portable — and the
// factory returns nullptr unless the CPU actually reports AVX2, so the
// dispatch layer can list it only where it runs.

#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/capability.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H3DFACT_KERNELS_AVX2 1
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#endif

namespace h3dfact::hdc::kernels {

#if defined(H3DFACT_KERNELS_AVX2)

namespace {

// popcount(a XOR b) over nw words via the nibble-LUT (Mula) algorithm:
// 32 bytes per step, byte counts reduced with SAD against zero.
__attribute__((target("avx2"))) long long xor_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t nw) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i x = _mm256_xor_si256(va, vb);
    const __m256i lo = _mm256_and_si256(x, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(x, 4), low);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  long long total =
      static_cast<long long>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; w < nw; ++w) total += std::popcount(a[w] ^ b[w]);
  return total;
}

// y = C − Σ_j 2c_j·bit_j with a word's 64 sums in eight registers. AVX2
// has no mask registers, so each lane shifts its bit of the word's 32-bit
// half up to bit 31 and an arithmetic shift spreads it into the lane's add
// mask. A partial last word goes through a stack copy.
__attribute__((target("avx2"))) void project_rows_avx2(
    const std::uint64_t* const* rows, const int* coeffs, std::size_t k,
    std::size_t n, int* y) {
  std::uint32_t total = 0;  // C, wrapping like the sums
  for (std::size_t j = 0; j < k; ++j) {
    total += static_cast<std::uint32_t>(coeffs[j]);
  }
  const __m256i vtotal = _mm256_set1_epi32(static_cast<int>(total));
  // Group g of a half holds bits 8g..8g+7; its lane i shifts by 31 − 8g − i.
  __m256i shifts[4];
  for (int g = 0; g < 4; ++g) {
    shifts[g] = _mm256_sub_epi32(
        _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24),
        _mm256_set1_epi32(8 * g));
  }
  alignas(32) int tail[64] = {};  // a partial last word's sums
  for (std::size_t w = 0; w * 64 < n; ++w) {
    __m256i acc[8];
    for (auto& a : acc) a = _mm256_setzero_si256();
    for (std::size_t j = 0; j < k; ++j) {
      if (coeffs[j] == 0) continue;
      const __m256i c2 = _mm256_set1_epi32(
          static_cast<int>(2u * static_cast<std::uint32_t>(coeffs[j])));
      const std::uint64_t bits = rows[j][w];
      for (int h = 0; h < 2; ++h) {
        const __m256i half = _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(bits >> (32 * h))));
        for (int g = 0; g < 4; ++g) {
          const __m256i mask =
              _mm256_srai_epi32(_mm256_sllv_epi32(half, shifts[g]), 31);
          acc[4 * h + g] =
              _mm256_add_epi32(acc[4 * h + g], _mm256_and_si256(mask, c2));
        }
      }
    }
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    int* out = len == 64 ? y + w * 64 : tail;
    for (int g = 0; g < 8; ++g) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * g),
                          _mm256_sub_epi32(vtotal, acc[g]));
    }
    if (len < 64) std::copy_n(tail, len, y + w * 64);
  }
}

// The tile loop carries the same target attribute so the popcount inlines
// into it instead of bouncing through the portable-ISA boundary.
__attribute__((target("avx2"))) void similarity_tile_avx2(
    const std::uint64_t* rows, std::size_t row_stride, std::size_t nrows,
    const std::uint64_t* const* queries, std::size_t nq, std::size_t nw,
    long long dim, int* sims, std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_avx2(queries[q], rows + i * row_stride, nw);
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

// Whole 64-element words, 8 lanes per compare, one MOVMSKPS per compare;
// a partial last word goes to the scalar reference.
__attribute__((target("avx2"))) void sign_bits_avx2(const int* y,
                                                    std::size_t n,
                                                    std::uint64_t* neg,
                                                    std::uint64_t* zero) {
  const __m256i zv = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t neg_w = 0;
    std::uint64_t zero_w = 0;
    for (std::size_t j = 0; j < 64; j += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + j));
      const auto lt = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(zv, v))));
      const auto eq = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zv))));
      neg_w |= static_cast<std::uint64_t>(lt) << j;
      zero_w |= static_cast<std::uint64_t>(eq) << j;
    }
    neg[i / 64] = neg_w;
    zero[i / 64] = zero_w;
  }
  if (i < n) {
    scalar_backend()->sign_bits(y + i, n - i, neg + i / 64, zero + i / 64);
  }
}

__attribute__((target("bmi2"))) std::uint64_t deposit_bmi2(
    std::uint64_t src, std::uint64_t mask) {
  return _pdep_u64(src, mask);
}

}  // namespace

// PDEP where the probe reports BMI2, else the scalar loop.
const KernelBackend* avx2_backend() {
  static const KernelBackend* selected = []() -> const KernelBackend* {
    const CpuCapabilities& caps = probe();
    if (!caps.avx2) return nullptr;
    static const KernelBackend kAvx2{
        "avx2", project_rows_avx2, similarity_tile_avx2, sign_bits_avx2,
        compose_sign_rows<project_rows_avx2, sign_bits_avx2>,
        caps.bmi2 ? deposit_bmi2 : scalar_backend()->deposit};
    return &kAvx2;
  }();
  return selected;
}

#else  // !H3DFACT_KERNELS_AVX2

const KernelBackend* avx2_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
