#pragma once
// Kernel selection policy: capability-scored backend choice, the per-call
// vs tiled crossover for the batched similarity path, and the work
// threshold below which the engine-level worker pool stays cold. The
// backend choice is an explicit, unit-testable scoring function over
// CpuCapabilities, not a first-match table.
//
// force_policy() overrides the built-in measured defaults (the crossover
// table in docs/kernels.md) until reset_policy().
//
// The policy never affects results — every backend and both tile shapes
// are bit-identical by contract — only which code runs. That is what lets
// the fuzz suite pin both tile shapes against each other.

#include <cstddef>
#include <string_view>
#include <vector>

#include "hdc/kernels/capability.hpp"

namespace h3dfact::hdc::kernels {

struct KernelBackend;

/// How the batched similarity path shapes its loops.
enum class TileMode {
  kAuto,     ///< measured crossover: per-call below the batch threshold
  kPerCall,  ///< always query-major (one pass over the codebook per query)
  kTiled,    ///< always row-blocked (a row tile stays L1-hot across queries)
};

/// The tuning knobs the kernel layer consults per call. Defaults are the
/// measured table from docs/kernels.md (AVX2 dev host, dim 1024): the tiled
/// path overtakes per-call at batch 4, and threading starts paying for its
/// fan-out/join at roughly one codebook pass of 2^18 word-ops.
struct KernelPolicy {
  TileMode tile_mode = TileMode::kAuto;
  /// Batch size (query count) at or above which kAuto picks the tiled path.
  std::size_t tile_crossover_batch = 4;
  /// Minimum per-call work (rows * words-per-row * queries for similarity,
  /// rows * dim for projection) before a batched call fans out across the
  /// worker pool. Below it the fan-out/join overhead exceeds the win.
  std::size_t parallel_min_work = 1u << 18;
};

/// The policy every kernel call consults: a force_policy() override if one
/// is set, else the built-in defaults.
[[nodiscard]] const KernelPolicy& active_policy();

/// Programmatic override of active_policy() (crossover sweeps, tests).
void force_policy(const KernelPolicy& policy);

/// Drop the force_policy() override; the defaults apply again.
void reset_policy();

/// Whether a batched similarity call over `batch` queries takes the tiled
/// path under `policy` (the kAuto crossover rule made testable).
[[nodiscard]] bool use_tiled(const KernelPolicy& policy, std::size_t batch);

/// Capability score of a backend name against a capability set. Higher
/// wins; 0 means "cannot run here". The ordering encodes the measured
/// ranking, not just vector width: avx512 needs hardware popcount
/// (avx512vpopcntdq) as well as avx512f, and with it outranks avx2.
[[nodiscard]] int score_backend(std::string_view name,
                                const CpuCapabilities& caps);

/// The highest-scoring backend among `candidates` for `caps`; nullptr when
/// none can run (never happens with scalar present). Ties break toward the
/// earlier candidate so the ordering of available() stays authoritative.
[[nodiscard]] const KernelBackend* select_backend(
    const std::vector<const KernelBackend*>& candidates,
    const CpuCapabilities& caps);

}  // namespace h3dfact::hdc::kernels
