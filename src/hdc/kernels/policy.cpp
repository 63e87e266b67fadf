// Policy resolution: the capability scoring table, the tile crossover rule
// and the force_policy() override.

#include "hdc/kernels/policy.hpp"

#include <atomic>

#include "hdc/kernels/backend.hpp"

namespace h3dfact::hdc::kernels {

namespace {

// force_policy() storage: the override itself plus an atomic flag so
// readers skip the copy when no override is set. Writes are rare (tests,
// sweep setup); active_policy() is on the hot path.
KernelPolicy g_forced_policy;
std::atomic<bool> g_policy_forced{false};

}  // namespace

const KernelPolicy& active_policy() {
  static const KernelPolicy defaults;
  return g_policy_forced.load(std::memory_order_acquire) ? g_forced_policy
                                                          : defaults;
}

void force_policy(const KernelPolicy& policy) {
  g_forced_policy = policy;
  g_policy_forced.store(true, std::memory_order_release);
}

void reset_policy() { g_policy_forced.store(false, std::memory_order_release); }

bool use_tiled(const KernelPolicy& policy, std::size_t batch) {
  switch (policy.tile_mode) {
    case TileMode::kPerCall:
      return false;
    case TileMode::kTiled:
      return true;
    case TileMode::kAuto:
      break;
  }
  return batch >= policy.tile_crossover_batch;
}

int score_backend(std::string_view name, const CpuCapabilities& caps) {
  // Measured ranking, not first-match order. scalar is the floor every
  // host can run; sse2 beats it via 128-bit XOR + SWAR popcount; avx2's
  // 256-bit nibble-LUT popcount beats both; avx512 with hardware popcount
  // (VPOPCNTDQ) is the ceiling, but *without* it the 512-bit LUT sequence
  // is AVX2-class work at downclock risk, so it ranks below avx2.
  if (name == "scalar") return 1;
  if (name == "sse2") return caps.sse2 ? 2 : 0;
  if (name == "neon") return caps.neon ? 4 : 0;
  if (name == "avx2") return caps.avx2 ? 4 : 0;
  if (name == "avx512") {
    if (!caps.avx512f || !caps.avx512bw) return 0;
    return caps.avx512vpopcntdq ? 5 : 3;
  }
  return 0;  // unknown backends never win by accident
}

const KernelBackend* select_backend(
    const std::vector<const KernelBackend*>& candidates,
    const CpuCapabilities& caps) {
  const KernelBackend* best = nullptr;
  int best_score = 0;
  for (const KernelBackend* candidate : candidates) {
    const int s = score_backend(candidate->name, caps);
    if (s > best_score) {
      best = candidate;
      best_score = s;
    }
  }
  return best;
}

}  // namespace h3dfact::hdc::kernels
