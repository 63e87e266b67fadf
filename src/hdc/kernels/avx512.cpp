// AVX-512 backend. Like avx2.cpp the translation unit compiles at the
// baseline ISA with function-level target attributes, and the factory
// probes the CPU — but here the probe picks between two bit-identical
// variants of the popcount path: VPOPCNTDQ hardware lane popcount where
// the CPU has it, else the AVX2-era nibble-LUT sequence widened to 512-bit
// registers (AVX512BW supplies VPSHUFB/VPSADBW at 512 bits). Both variants
// publish the same "avx512" name; the kernel *policy* (policy.cpp) is what
// decides whether avx512 should outrank avx2 on a given capability set —
// the backend itself only reports what can run.

#include "hdc/kernels/backend.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define H3DFACT_KERNELS_AVX512 1
#include <immintrin.h>

#include <bit>
#include <cstdint>
#endif

namespace h3dfact::hdc::kernels {

#if defined(H3DFACT_KERNELS_AVX512)

namespace {

// popcount(a XOR b), 8 words per step, one VPOPCNTQ per 512-bit lane pair.
__attribute__((target("avx512f,avx512vpopcntdq"))) long long
xor_popcount_avx512pop(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nw) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  long long total = _mm512_reduce_add_epi64(acc);
  for (; w < nw; ++w) total += std::popcount(a[w] ^ b[w]);
  return total;
}

// The same contract without VPOPCNTDQ: the Mula nibble-LUT algorithm of
// avx2.cpp at double width — VPSHUFB/VPSADBW are 512-bit under AVX512BW.
__attribute__((target("avx512f,avx512bw"))) long long xor_popcount_avx512lut(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t nw) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low = _mm512_set1_epi8(0x0f);
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= nw; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    const __m512i x = _mm512_xor_si512(va, vb);
    const __m512i lo = _mm512_and_si512(x, low);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(x, 4), low);
    const __m512i cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                        _mm512_shuffle_epi8(lut, hi));
    acc =
        _mm512_add_epi64(acc, _mm512_sad_epu8(cnt, _mm512_setzero_si512()));
  }
  long long total = _mm512_reduce_add_epi64(acc);
  for (; w < nw; ++w) total += std::popcount(a[w] ^ b[w]);
  return total;
}

// y[0..n) += a * row[0..n): 16 int8 lanes sign-extended to i32 per step.
__attribute__((target("avx512f"))) void axpy_row_avx512(int a,
                                                        const std::int8_t* row,
                                                        int* y,
                                                        std::size_t n) {
  const __m512i va = _mm512_set1_epi32(a);
  std::size_t d = 0;
  for (; d + 16 <= n; d += 16) {
    const __m128i r8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + d));
    const __m512i r32 = _mm512_cvtepi8_epi32(r8);
    __m512i yv = _mm512_loadu_si512(y + d);
    yv = _mm512_add_epi32(yv, _mm512_mullo_epi32(va, r32));
    _mm512_storeu_si512(y + d, yv);
  }
  for (; d < n; ++d) y[d] += a * row[d];
}

// Tile loops carry the matching target attributes so the popcounts inline.
__attribute__((target("avx512f,avx512vpopcntdq"))) void
similarity_tile_avx512pop(const std::uint64_t* rows, std::size_t row_stride,
                          std::size_t nrows,
                          const std::uint64_t* const* queries, std::size_t nq,
                          std::size_t nw, long long dim, int* sims,
                          std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_avx512pop(queries[q], rows + i * row_stride, nw);
      sims[i * sim_stride + q] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

__attribute__((target("avx512f,avx512bw"))) void similarity_tile_avx512lut(
    const std::uint64_t* rows, std::size_t row_stride, std::size_t nrows,
    const std::uint64_t* const* queries, std::size_t nq, std::size_t nw,
    long long dim, int* sims, std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_avx512lut(queries[q], rows + i * row_stride, nw);
      sims[i * sim_stride + q] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

constexpr KernelBackend kAvx512Pop{"avx512", axpy_row_avx512,
                                   similarity_tile_avx512pop};

constexpr KernelBackend kAvx512Lut{"avx512", axpy_row_avx512,
                                   similarity_tile_avx512lut};

}  // namespace

const KernelBackend* avx512_backend() {
  static const KernelBackend* selected = []() -> const KernelBackend* {
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512bw")) {
      return nullptr;
    }
    return __builtin_cpu_supports("avx512vpopcntdq") ? &kAvx512Pop
                                                     : &kAvx512Lut;
  }();
  return selected;
}

#else  // !H3DFACT_KERNELS_AVX512

const KernelBackend* avx512_backend() { return nullptr; }

#endif

}  // namespace h3dfact::hdc::kernels
