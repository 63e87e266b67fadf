#pragma once
// Mid-solve resonator state: everything ResonatorNetwork::resume() needs to
// continue a run bit-identically from iteration `iteration + 1`, the way
// sweeps already resume per cell from checkpoints. src/io/ serializes
// this struct as the kResonatorState artifact section.
//
// The snapshot deliberately does NOT carry the codebooks (they are large and
// already serializable on their own): it carries their fingerprint, and
// resume() refuses a snapshot whose fingerprint does not match the network's
// codebook set. Likewise `options_digest` pins the dynamics configuration —
// resuming under different update rules would silently diverge.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hdc/hypervector.hpp"
#include "resonator/limit_cycle.hpp"
#include "util/rng.hpp"

namespace h3dfact::resonator {

struct ResonatorOptions;

/// Complete mid-solve state of one ResonatorNetwork::run invocation.
struct ResonatorSnapshot {
  /// Iterations completed when the snapshot was taken; resume continues at
  /// `iteration + 1` with absolute iteration numbering, so an interrupted +
  /// resumed run reports the same ResonatorResult::iterations as an
  /// uninterrupted one.
  std::uint64_t iteration = 0;

  // The problem instance (minus the shared codebooks).
  hdc::BipolarVector query;
  std::vector<std::size_t> ground_truth;  ///< empty = unknown
  double query_noise = 0.0;
  bool ground_truth_known = false;

  // Loop state.
  std::vector<hdc::BipolarVector> estimates;  ///< x̂_f at `iteration`
  std::vector<std::size_t> decoded;           ///< last per-factor argmax
  std::vector<char> correct_trace;            ///< opt-in trace so far

  /// Full generator state at the snapshot point: restoring it replays the
  /// exact tie-break / channel-noise stream of the uninterrupted run.
  util::RngState rng;

  // Limit-cycle detector state (sorted by hash: byte-deterministic).
  std::vector<std::pair<std::uint64_t, std::size_t>> cycle_seen;
  std::optional<CycleInfo> cycle_found;

  // Compatibility pins.
  std::uint64_t codebook_fingerprint = 0;  ///< hdc::set_fingerprint of the set
  std::uint64_t options_digest = 0;        ///< options_fingerprint() of the run
};

/// Digest of the dynamics-relevant ResonatorOptions fields (profiler and the
/// channel's internal parameters excluded; channel presence/determinism
/// included). Snapshots resume only under an options set with equal digest.
std::uint64_t options_fingerprint(const ResonatorOptions& options);

/// Periodic snapshot capture: every `every` completed iterations (0 = never)
/// the run hands a fresh snapshot to `sink`. The sink owns the snapshot and
/// may serialize it (io::add_resonator_snapshot) or keep it in memory.
struct SnapshotPolicy {
  std::size_t every = 0;
  /// Plain function-pointer-with-context form (kept trivially copyable so
  /// the hot loop pays one branch when disabled).
  void (*sink)(const ResonatorSnapshot&, void* ctx) = nullptr;
  void* ctx = nullptr;

  [[nodiscard]] bool enabled() const { return every != 0 && sink != nullptr; }
};

}  // namespace h3dfact::resonator
