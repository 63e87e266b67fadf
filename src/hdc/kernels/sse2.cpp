// SSE2 backend. SSE2 is baseline in the x86-64 ABI, so like NEON on
// aarch64 the whole translation unit compiles at the platform ISA (no
// function target attributes, no CPU probe) — the factory is gated at
// compile time only. It exists as the portable-x86 rung between scalar and
// AVX2: no PSHUFB (SSSE3) and no POPCNT (SSE4.2), so popcount is the SWAR
// bit-slide reduced with PSADBW.

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

// The scalar reference's projection loop is written so the compiler
// vectorizes it at the x86-64 baseline, i.e. with SSE2; a hand-written
// SSE2 version measured no faster, so this slot forwards to it.
void project_rows_sse2(const std::uint64_t* const* rows, const int* coeffs,
                       std::size_t k, std::size_t n, int* y) {
  scalar_backend()->project_rows(rows, coeffs, k, n, y);
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
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

// 16 lane masks (0 or −1 per 32-bit lane) to 16 bits, lane k at bit k:
// saturating packs keep each lane's sign through i16 to i8, and PMOVMSKB
// gathers the byte signs.
inline std::uint64_t bits16_sse2(__m128i m0, __m128i m1, __m128i m2,
                                 __m128i m3) {
  const __m128i bytes =
      _mm_packs_epi16(_mm_packs_epi32(m0, m1), _mm_packs_epi32(m2, m3));
  return static_cast<unsigned>(_mm_movemask_epi8(bytes));
}

// Whole 64-element words, 16 lanes per step; a partial last word goes to
// the scalar reference.
void sign_bits_sse2(const int* y, std::size_t n, std::uint64_t* neg,
                    std::uint64_t* zero) {
  const __m128i zv = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t neg_w = 0;
    std::uint64_t zero_w = 0;
    for (std::size_t j = 0; j < 64; j += 16) {
      const __m128i* p = reinterpret_cast<const __m128i*>(y + i + j);
      const __m128i v0 = _mm_loadu_si128(p);
      const __m128i v1 = _mm_loadu_si128(p + 1);
      const __m128i v2 = _mm_loadu_si128(p + 2);
      const __m128i v3 = _mm_loadu_si128(p + 3);
      neg_w |= bits16_sse2(_mm_cmplt_epi32(v0, zv), _mm_cmplt_epi32(v1, zv),
                           _mm_cmplt_epi32(v2, zv), _mm_cmplt_epi32(v3, zv))
               << j;
      zero_w |= bits16_sse2(_mm_cmpeq_epi32(v0, zv), _mm_cmpeq_epi32(v1, zv),
                            _mm_cmpeq_epi32(v2, zv), _mm_cmpeq_epi32(v3, zv))
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

// SSE2 has no bit deposit: the slot takes the scalar loop.
const KernelBackend* sse2_backend() {
  static const KernelBackend kSse2{"sse2", project_rows_sse2,
                                   similarity_tile_sse2, sign_bits_sse2,
                                   scalar_backend()->deposit};
  return &kSse2;
}

#else  // !H3DFACT_KERNELS_SSE2

const KernelBackend* sse2_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
