// Scalar reference backend. Every other backend must match it bit for bit
// (asserted by the parity suite in tests/test_kernels.cpp); it is also the
// fallback on ISAs without a SIMD backend and the H3DFACT_KERNEL_BACKEND=
// scalar override target for A/B timing.

#include <bit>
#include <cstdint>

#include "hdc/kernels/backend.hpp"

namespace h3dfact::hdc::kernels {

namespace {

long long xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nw) {
  long long disagree = 0;
  for (std::size_t w = 0; w < nw; ++w) disagree += std::popcount(a[w] ^ b[w]);
  return disagree;
}

void axpy_row_scalar(int a, const std::int8_t* row, int* y, std::size_t n) {
  for (std::size_t d = 0; d < n; ++d) y[d] += a * row[d];
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
      sims[i * sim_stride + q] = static_cast<int>(dim - 2 * disagree);
    }
  }
}

constexpr KernelBackend kScalar{"scalar", axpy_row_scalar,
                                 similarity_tile_scalar};

}  // namespace

const KernelBackend* scalar_backend() { return &kScalar; }

}  // namespace h3dfact::hdc::kernels
