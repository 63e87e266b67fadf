// Scalar reference backend. Every other backend must match it bit for bit
// (asserted by the parity suite in tests/test_kernels.cpp); it is also the
// fallback on ISAs without a SIMD backend and the H3DFACT_KERNEL_BACKEND=
// scalar override target for A/B timing.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "hdc/kernels/backend.hpp"

namespace h3dfact::hdc::kernels {

namespace {

long long xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nw) {
  long long disagree = 0;
  for (std::size_t w = 0; w < nw; ++w) disagree += std::popcount(a[w] ^ b[w]);
  return disagree;
}

// y = C − Σ_j 2c_j·bit_j, one word of 64 sums at a time: a set bit adds
// 2c_j to its element's sum. Each 32-bit half of the word is tested
// against a table of single-bit masks rather than shifted per element, so
// the compiler vectorizes the element loop at the baseline ISA.
void project_rows_scalar(const std::uint64_t* const* rows, const int* coeffs,
                         std::size_t k, std::size_t n, int* y) {
  static constexpr auto kBit = [] {
    std::array<std::uint32_t, 32> bit{};
    for (std::size_t d = 0; d < 32; ++d) bit[d] = std::uint32_t{1} << d;
    return bit;
  }();
  std::uint32_t total = 0;  // C, wrapping like the sums
  for (std::size_t j = 0; j < k; ++j) {
    total += static_cast<std::uint32_t>(coeffs[j]);
  }
  for (std::size_t w = 0; w * 64 < n; ++w) {
    std::uint32_t acc[64] = {};
    for (std::size_t j = 0; j < k; ++j) {
      if (coeffs[j] == 0) continue;
      const std::uint32_t c2 = 2u * static_cast<std::uint32_t>(coeffs[j]);
      for (std::size_t h = 0; h < 2; ++h) {
        const auto half = static_cast<std::uint32_t>(rows[j][w] >> (32 * h));
        for (std::size_t d = 0; d < 32; ++d) {
          acc[32 * h + d] += (half & kBit[d]) != 0 ? c2 : 0u;
        }
      }
    }
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    for (std::size_t d = 0; d < len; ++d) {
      y[w * 64 + d] = static_cast<int>(total - acc[d]);
    }
  }
}

void similarity_tile_scalar(const std::uint64_t* rows, std::size_t row_stride,
                            std::size_t nrows,
                            const std::uint64_t* const* queries,
                            std::size_t nq, std::size_t nw, long long dim,
                            int* sims, std::size_t sim_stride) {
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const long long disagree =
          xor_popcount_scalar(queries[q], rows + i * row_stride, nw);
      sims[q * sim_stride + i] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

// Eight 0/1 byte flags to eight bits, flag k (byte k in memory) at bit k.
// Loaded as one word, the multiply moves flag k's partial product to bit
// 56 + k, and every other partial product lands on a distinct bit below 56
// or past 63, so nothing carries into the top byte. A big-endian load puts
// byte k at the other end of the word, hence the mirrored multiplier.
std::uint64_t pack8(const unsigned char* flags) {
  constexpr std::uint64_t kMul = std::endian::native == std::endian::little
                                     ? 0x0102040810204080ULL
                                     : 0x8040201008040201ULL;
  std::uint64_t word = 0;
  std::memcpy(&word, flags, sizeof word);
  return (word * kMul) >> 56;
}

// One byte flag per element (a loop GCC vectorizes), then 8 flags per
// multiply. Flags past n stay 0, so the last word's tail bits are 0.
void sign_bits_scalar(const int* y, std::size_t n, std::uint64_t* neg,
                      std::uint64_t* zero) {
  for (std::size_t w = 0; w * 64 < n; ++w) {
    const int* v = y + w * 64;
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    unsigned char neg_f[64] = {};
    unsigned char zero_f[64] = {};
    for (std::size_t j = 0; j < len; ++j) {
      neg_f[j] = v[j] < 0;
      zero_f[j] = v[j] == 0;
    }
    std::uint64_t neg_w = 0;
    std::uint64_t zero_w = 0;
    for (std::size_t j = 0; j < 64; j += 8) {
      neg_w |= pack8(neg_f + j) << j;
      zero_w |= pack8(zero_f + j) << j;
    }
    neg[w] = neg_w;
    zero[w] = zero_w;
  }
}

// PDEP without BMI2: each set bit of the mask, lowest first, takes the
// next bit shifted out of src; both stay in registers.
std::uint64_t deposit_scalar(std::uint64_t src, std::uint64_t mask) {
  std::uint64_t out = 0;
  for (; mask != 0; mask &= mask - 1) {
    out |= (src & 1u) << std::countr_zero(mask);
    src >>= 1;
  }
  return out;
}

constexpr KernelBackend kScalar{"scalar", project_rows_scalar,
                                 similarity_tile_scalar, sign_bits_scalar,
                                 deposit_scalar};

}  // namespace

const KernelBackend* scalar_backend() { return &kScalar; }

}  // namespace h3dfact::hdc::kernels
