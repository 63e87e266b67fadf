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

// y = C − Σ_j 2c_j·bit_j: a word's 64 sums live in four registers, and
// each 16-bit slice of a row word is the add mask of 16 lanes. A partial
// last word is written under a store mask.
__attribute__((target("avx512f"))) void project_rows_avx512(
    const std::uint64_t* const* rows, const int* coeffs, std::size_t k,
    std::size_t n, int* y) {
  std::uint32_t total = 0;  // C, wrapping like the sums
  for (std::size_t j = 0; j < k; ++j) {
    total += static_cast<std::uint32_t>(coeffs[j]);
  }
  const __m512i vtotal = _mm512_set1_epi32(static_cast<int>(total));
  for (std::size_t w = 0; w * 64 < n; ++w) {
    __m512i acc[4];
    for (auto& a : acc) a = _mm512_setzero_si512();
    for (std::size_t j = 0; j < k; ++j) {
      if (coeffs[j] == 0) continue;
      const __m512i c2 = _mm512_set1_epi32(
          static_cast<int>(2u * static_cast<std::uint32_t>(coeffs[j])));
      const std::uint64_t bits = rows[j][w];
      for (int q = 0; q < 4; ++q) {
        acc[q] = _mm512_mask_add_epi32(
            acc[q], static_cast<__mmask16>(bits >> (16 * q)), acc[q], c2);
      }
    }
    int* out = y + w * 64;
    const std::size_t len = n - w * 64;
    const std::uint64_t live =
        len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    for (int q = 0; q < 4; ++q) {
      const auto mask = static_cast<__mmask16>(live >> (16 * q));
      const __m512i sums = _mm512_sub_epi32(vtotal, acc[q]);
      if (mask == 0xFFFF) {
        _mm512_storeu_si512(out + 16 * q, sums);
      } else if (mask != 0) {
        _mm512_mask_storeu_epi32(out + 16 * q, mask, sums);
      }
    }
  }
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
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
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
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

// Whole 64-element words, 16 lanes per compare straight into mask
// registers; a partial last word goes to the scalar reference. Both
// variants share it (it needs only avx512f).
__attribute__((target("avx512f"))) void sign_bits_avx512(const int* y,
                                                         std::size_t n,
                                                         std::uint64_t* neg,
                                                         std::uint64_t* zero) {
  const __m512i zv = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t neg_w = 0;
    std::uint64_t zero_w = 0;
    for (std::size_t j = 0; j < 64; j += 16) {
      const __m512i v = _mm512_loadu_si512(y + i + j);
      neg_w |= static_cast<std::uint64_t>(_mm512_cmplt_epi32_mask(v, zv)) << j;
      zero_w |= static_cast<std::uint64_t>(_mm512_cmpeq_epi32_mask(v, zv))
                << j;
    }
    neg[i / 64] = neg_w;
    zero[i / 64] = zero_w;
  }
  if (i < n) {
    scalar_backend()->sign_bits(y + i, n - i, neg + i / 64, zero + i / 64);
  }
}

constexpr KernelBackend kAvx512Pop{"avx512", project_rows_avx512,
                                   similarity_tile_avx512pop,
                                   sign_bits_avx512};

constexpr KernelBackend kAvx512Lut{"avx512", project_rows_avx512,
                                   similarity_tile_avx512lut,
                                   sign_bits_avx512};

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
