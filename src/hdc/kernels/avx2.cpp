// AVX2 backend. The translation unit compiles at the baseline ISA —
// function-level target attributes keep the binary portable — and the
// factory returns nullptr unless the CPU actually reports AVX2, so the
// dispatch layer can list it only where it runs.

#include "hdc/kernels/backend.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H3DFACT_KERNELS_AVX2 1
#include <immintrin.h>

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

// y[0..n) += a * row[0..n) with ±1 int8 rows widened to i32.
__attribute__((target("avx2"))) void axpy_row_avx2(int a,
                                                   const std::int8_t* row,
                                                   int* y, std::size_t n) {
  const __m256i va = _mm256_set1_epi32(a);
  std::size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m128i r8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + d));
    const __m256i r32 = _mm256_cvtepi8_epi32(r8);
    __m256i yv = _mm256_loadu_si256(reinterpret_cast<__m256i*>(y + d));
    yv = _mm256_add_epi32(yv, _mm256_mullo_epi32(va, r32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + d), yv);
  }
  for (; d < n; ++d) y[d] += a * row[d];
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

constexpr KernelBackend kAvx2{"avx2", axpy_row_avx2, similarity_tile_avx2,
                              sign_bits_avx2};

}  // namespace

const KernelBackend* avx2_backend() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok ? &kAvx2 : nullptr;
}

#else  // !H3DFACT_KERNELS_AVX2

const KernelBackend* avx2_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
