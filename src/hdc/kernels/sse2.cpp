// SSE2 backend. SSE2 is baseline in the x86-64 ABI, so like NEON on
// aarch64 the whole translation unit compiles at the platform ISA (no
// function target attributes, no CPU probe) — the factory is gated at
// compile time only. It exists as the portable-x86 rung between scalar and
// AVX2: no PSHUFB (SSSE3) and no POPCNT (SSE4.2), so popcount is the SWAR
// bit-slide reduced with PSADBW, and the 32-bit multiply is synthesized
// from PMULUDQ pairs.

#include "hdc/kernels/backend.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H3DFACT_KERNELS_SSE2 1
#include <emmintrin.h>

#include <bit>
#include <cstdint>
#endif

namespace h3dfact::hdc::kernels {

#if defined(H3DFACT_KERNELS_SSE2)

namespace {

// popcount(a XOR b) over nw words, 2 words per step: the classic SWAR
// ladder (pairs, nibbles, bytes) in 128-bit lanes, byte counts summed with
// PSADBW against zero into the two 64-bit lanes of the accumulator.
long long xor_popcount_sse2(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t nw) {
  const __m128i m1 = _mm_set1_epi8(0x55);
  const __m128i m2 = _mm_set1_epi8(0x33);
  const __m128i m4 = _mm_set1_epi8(0x0f);
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = _mm_setzero_si128();
  std::size_t w = 0;
  for (; w + 2 <= nw; w += 2) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + w));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + w));
    __m128i x = _mm_xor_si128(va, vb);
    x = _mm_sub_epi8(x, _mm_and_si128(_mm_srli_epi64(x, 1), m1));
    x = _mm_add_epi8(_mm_and_si128(x, m2),
                     _mm_and_si128(_mm_srli_epi64(x, 2), m2));
    x = _mm_and_si128(_mm_add_epi8(x, _mm_srli_epi64(x, 4)), m4);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(x, zero));
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  long long total = static_cast<long long>(lanes[0] + lanes[1]);
  for (; w < nw; ++w) total += std::popcount(a[w] ^ b[w]);
  return total;
}

// 32-bit lane-wise multiply from PMULUDQ (SSE2 has no PMULLD): even lanes
// multiply in place, odd lanes via a 4-byte shift, low halves re-interleaved.
inline __m128i mullo_epi32_sse2(__m128i a, __m128i b) {
  const __m128i even = _mm_mul_epu32(a, b);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_si128(a, 4), _mm_srli_si128(b, 4));
  return _mm_unpacklo_epi32(
      _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
      _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
}

// y[0..n) += a * row[0..n): int8 rows sign-extended s8→s16→s32 with the
// compare-against-zero unpack idiom (no PMOVSX before SSE4.1), 8 lanes per
// step in two 128-bit halves.
void axpy_row_sse2(int a, const std::int8_t* row, int* y, std::size_t n) {
  const __m128i va = _mm_set1_epi32(a);
  const __m128i zero = _mm_setzero_si128();
  std::size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m128i r8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + d));
    const __m128i sign8 = _mm_cmpgt_epi8(zero, r8);
    const __m128i r16 = _mm_unpacklo_epi8(r8, sign8);
    const __m128i sign16 = _mm_cmpgt_epi16(zero, r16);
    const __m128i r_lo = _mm_unpacklo_epi16(r16, sign16);
    const __m128i r_hi = _mm_unpackhi_epi16(r16, sign16);
    __m128i y_lo = _mm_loadu_si128(reinterpret_cast<__m128i*>(y + d));
    __m128i y_hi = _mm_loadu_si128(reinterpret_cast<__m128i*>(y + d + 4));
    y_lo = _mm_add_epi32(y_lo, mullo_epi32_sse2(va, r_lo));
    y_hi = _mm_add_epi32(y_hi, mullo_epi32_sse2(va, r_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y + d), y_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y + d + 4), y_hi);
  }
  for (; d < n; ++d) y[d] += a * row[d];
}

void similarity_tile_sse2(const std::uint64_t* rows, std::size_t row_stride,
                          std::size_t nrows,
                          const std::uint64_t* const* queries, std::size_t nq,
                          std::size_t nw, long long dim, int* sims,
                          std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_sse2(queries[q], rows + i * row_stride, nw);
      sims[i * sim_stride + q] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

constexpr KernelBackend kSse2{"sse2", axpy_row_sse2, similarity_tile_sse2};

}  // namespace

const KernelBackend* sse2_backend() { return &kSse2; }

#else  // !H3DFACT_KERNELS_SSE2

const KernelBackend* sse2_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
