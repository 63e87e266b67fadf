#pragma once
// Multi-ISA kernel backend layer for the hot-path primitives of a
// resonator step: the XOR+popcount similarity tile, the projection the
// codebook computes straight from its packed ±1 rows, and the sign masks
// and tie deposit of the comparator (hdc::sign_of, Codebook::project_sign).
// Each backend is one translation unit compiled for its ISA (scalar
// always; SSE2 at the x86-64 baseline; AVX2 and AVX-512 via function-level
// target attributes on x86_64; NEON on aarch64 where Advanced SIMD is
// baseline). Selection happens once at runtime by scoring every
// compiled-in backend against the probed CPU capabilities (capability.hpp +
// policy.hpp — not first-match order), overridable by the
// H3DFACT_KERNEL_BACKEND environment variable or programmatically via
// force_backend() — so any compiled-in backend can be exercised on any host
// that supports it, and the parity/fuzz suites can pin every backend
// against scalar bit for bit.
//
// The contract for every entry point is exact integer arithmetic: all
// backends must produce bit-identical results for identical inputs. The
// tail elements past the widest vector width are always handled, so
// arbitrary dims/word counts are valid.

#include <cstdint>
#include <string_view>
#include <vector>

namespace h3dfact::hdc::kernels {

/// One ISA-specific implementation of the kernel primitives. Plain
/// function-pointer table so per-ISA translation units stay free of
/// virtual-dispatch plumbing and the active table is one pointer load.
struct KernelBackend {
  /// Stable identifier: "scalar", "sse2", "avx2", "avx512" or "neon". Also
  /// the value the
  /// H3DFACT_KERNEL_BACKEND environment variable matches against, and the
  /// `backend` field of the bench/kernels --json artifact.
  const char* name;

  /// y[0..n) = Σ_{j<k} coeffs[j]·x_j, where x_j is the ±1 row packed at
  /// rows[j] (bit 1 encodes −1, as in hdc::BipolarVector; ceil(n/64) words
  /// are read from each row, and a row may be listed more than once).
  /// Computed straight from the bits as C − Σ_j 2·coeffs[j]·bit_j with
  /// C = Σ_j coeffs[j], one 64-element word at a time (the SIMD backends
  /// keep a word's sums in registers); rows with a zero coefficient are
  /// skipped, and k = 0 writes zeros. The arithmetic wraps at 32 bits, so the result is exact
  /// whenever the true sum fits in an int, and every backend returns the
  /// same bits for any input.
  void (*project_rows)(const std::uint64_t* const* rows, const int* coeffs,
                       std::size_t k, std::size_t n, int* y);

  /// Batched similarity tile: for every query q and tile row i,
  ///   sims[q * sim_stride + i] = dim − 2·popcount(queries[q] XOR row_i)
  /// where row_i = rows[i * row_stride .. i * row_stride + nw): the ±1 dot
  /// product from the disagree count. Queries iterate outermost so a tile
  /// of rows stays L1-hot across the whole batch (the blocked layout the
  /// batched codebook path relies on), and each query's scores land in
  /// its own item of an item-major hdc::CoeffBlock. With nq == 1 this is
  /// the per-call similarity loop.
  void (*similarity_tile)(const std::uint64_t* rows, std::size_t row_stride,
                          std::size_t nrows,
                          const std::uint64_t* const* queries, std::size_t nq,
                          std::size_t nw, long long dim, int* sims,
                          std::size_t sim_stride);

  /// Sign masks of y[0..n): for every 64-element word w, bit j of neg[w]
  /// is y[64w + j] < 0 and bit j of zero[w] is y[64w + j] == 0. Writes
  /// ceil(n/64) words to each; bits past n are 0.
  void (*sign_bits)(const int* y, std::size_t n, std::uint64_t* neg,
                    std::uint64_t* zero);

  /// Bit deposit (BMI2 PDEP): the low popcount(mask) bits of src, lowest
  /// first, placed at the set bits of mask, lowest first; every other bit
  /// is 0. The comparator (hdc::SignWriter) fills a word's ties from its
  /// random stream with one call.
  std::uint64_t (*deposit)(std::uint64_t src, std::uint64_t mask);
};

/// Every backend compiled into this binary that can run on this CPU, scalar
/// first. Scalar is always present, so the result is never empty.
[[nodiscard]] std::vector<const KernelBackend*> available();

/// Look a backend up by name among available(); nullptr when the name is
/// unknown or the backend cannot run here (e.g. "neon" on x86_64).
[[nodiscard]] const KernelBackend* find(std::string_view name);

/// Resolve the startup selection: `requested` of nullptr/empty picks the
/// highest-scoring available backend for the probed CPU capabilities
/// (policy.hpp's score_backend/select_backend — e.g. avx512 outranks avx2
/// only when VPOPCNTDQ is present); otherwise the named backend, throwing
/// std::runtime_error when it is unknown or unavailable (a typoed
/// H3DFACT_KERNEL_BACKEND must fail loudly, not silently fall back and
/// defeat a CI parity gate). Exposed so tests can cover the resolution
/// rules without mutating the process environment.
[[nodiscard]] const KernelBackend& resolve_backend(const char* requested);

/// The backend every kernel call routes through: a force_backend() override
/// if one is set, else the cached startup selection (H3DFACT_KERNEL_BACKEND
/// or CPU-feature auto-detection, resolved on first use).
[[nodiscard]] const KernelBackend& active();

/// Programmatic override of active(), e.g. to pin scalar for a parity or
/// A/B timing run. Throws std::runtime_error (and changes nothing) for an
/// unknown or unavailable name — a forced-backend matrix leg that cannot
/// actually pin its backend must fail loudly, not silently keep measuring
/// whatever auto-detection picked.
void force_backend(std::string_view name);

/// Drop the force_backend() override; env/auto selection applies again.
void reset_backend();

// Per-ISA factories (one per backend translation unit). Each returns its
// backend table, or nullptr when the ISA is not compiled in or the CPU
// lacks the feature. Use available()/find() instead of calling these
// directly.
const KernelBackend* scalar_backend();
const KernelBackend* sse2_backend();
const KernelBackend* avx2_backend();
const KernelBackend* avx512_backend();
const KernelBackend* neon_backend();

}  // namespace h3dfact::hdc::kernels
