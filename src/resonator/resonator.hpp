#pragma once
// The resonator network factorizer (Sec. II-B state-space equations), in both
// its deterministic baseline form (Frady et al. [9]) and the stochastic
// H3DFact form (noisy similarity channel + low-precision ADC, Sec. III-C).
//
// Each iteration, for every factor f:
//   u_f      = s ⊙ ⊙_{f'≠f} x̂_{f'}          (unbinding, XNOR tier-1)
//   a_f      = X_fᵀ u_f                       (similarity MVM, RRAM tier-3)
//   ã_f      = channel(a_f)                   (noise + ADC, Sec. III-C)
//   x̂_f(t+1) = sign(X_f ã_f)                  (projection MVM tier-2 + sign)
//
// The loop stops when the composed decoded product matches the query, when a
// limit cycle / fixed point is detected (deterministic dynamics only), or at
// the iteration cap.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/codebook.hpp"
#include "resonator/channels.hpp"
#include "resonator/limit_cycle.hpp"
#include "resonator/problem.hpp"
#include "resonator/profiler.hpp"
#include "resonator/snapshot.hpp"
#include "util/rng.hpp"

namespace h3dfact::resonator {

/// Abstraction of the two MVM kernels so the same loop can run on exact
/// software kernels or through a modelled hardware path (cim/arch layers).
/// The loop issues the projection through project_sign, which ends in the
/// comparator: an engine that can fuse the two (ExactMvmEngine) overrides
/// it; every other engine inherits the default, which composes its
/// project/project_batch with hdc::sign_of.
class MvmEngine {
 public:
  virtual ~MvmEngine() = default;

  /// a = X_fᵀ u (raw similarity read-out; may already include device noise).
  [[nodiscard]] virtual std::vector<int> similarity(std::size_t factor,
                                                    const hdc::BipolarVector& u,
                                                    util::Rng& rng) = 0;

  /// y = X_f ã (projection accumulation; may include device noise).
  [[nodiscard]] virtual std::vector<int> project(std::size_t factor,
                                                 const std::vector<int>& coeffs,
                                                 util::Rng& rng) = 0;

  /// Batched similarity: a_b = X_fᵀ u_b for every query of the batch in one
  /// engine pass (M×B block). The default walks the per-call kernel in batch
  /// order, so custom engines stay correct; ExactMvmEngine swaps in the
  /// blocked XOR+popcount tile kernel and CimMvmEngine a single macro pass.
  [[nodiscard]] virtual hdc::CoeffBlock similarity_batch(
      std::size_t factor, std::span<const hdc::BipolarVector> us,
      util::Rng& rng);

  /// Batched projection over an M×B item-major coefficient block (D×B
  /// block out). Same contract as similarity_batch: item b must be
  /// distributed like a per-call project(factor, coeffs.item(b)).
  [[nodiscard]] virtual hdc::CoeffBlock project_batch(
      std::size_t factor, const hdc::CoeffBlock& coeffs, util::Rng& rng);

  /// Projection plus comparator over the live batch (step IV):
  /// out[b] = sign(X_f ã_b), ties broken by tie_rngs[b] as
  /// hdc::sign_of(counts, rng) breaks them, or to +1 where tie_rngs[b] is
  /// null. `rng` drives engine randomness. The default projects a lone item
  /// with project() and a larger batch with project_batch(), then applies
  /// sign_of item by item, so engines that only override those keep every
  /// draw. Distinct items must not share a tie generator.
  virtual void project_sign(std::size_t factor,
                            std::span<const std::vector<int>> coeffs,
                            std::span<util::Rng* const> tie_rngs,
                            util::Rng& rng, std::span<hdc::BipolarVector> out);
};

/// Exact software kernels over a codebook set. All per-call and batched
/// work routes through the runtime-selected multi-ISA kernel backend
/// (hdc/kernels/backend.hpp) unless a specific backend is pinned.
class ExactMvmEngine final : public MvmEngine {
 public:
  explicit ExactMvmEngine(std::shared_ptr<const hdc::CodebookSet> set);

  /// Pin every MVM of this engine to one kernel backend (parity suites,
  /// A/B timing). The single-argument constructor instead follows the
  /// process-wide kernels::active() selection live, call by call.
  ExactMvmEngine(std::shared_ptr<const hdc::CodebookSet> set,
                 const hdc::kernels::KernelBackend& backend);
  [[nodiscard]] std::vector<int> similarity(std::size_t factor,
                                            const hdc::BipolarVector& u,
                                            util::Rng& rng) override;
  [[nodiscard]] std::vector<int> project(std::size_t factor,
                                         const std::vector<int>& coeffs,
                                         util::Rng& rng) override;
  [[nodiscard]] hdc::CoeffBlock similarity_batch(
      std::size_t factor, std::span<const hdc::BipolarVector> us,
      util::Rng& rng) override;
  [[nodiscard]] hdc::CoeffBlock project_batch(std::size_t factor,
                                              const hdc::CoeffBlock& coeffs,
                                              util::Rng& rng) override;
  /// hdc::Codebook::project_sign: no integer vector, same bits and draws
  /// as the default.
  void project_sign(std::size_t factor,
                    std::span<const std::vector<int>> coeffs,
                    std::span<util::Rng* const> tie_rngs, util::Rng& rng,
                    std::span<hdc::BipolarVector> out) override;

 private:
  std::shared_ptr<const hdc::CodebookSet> set_;
  const hdc::kernels::KernelBackend* backend_ = nullptr;  // nullptr = live
};

/// Factor-update schedule.
enum class UpdateMode {
  kAsynchronous,  ///< each factor sees the freshest other estimates (default)
  kSynchronous,   ///< all factors updated from the previous iteration's state
};

/// Configuration of a resonator run.
struct ResonatorOptions {
  UpdateMode update = UpdateMode::kAsynchronous;
  std::size_t max_iterations = 1000;
  /// Similarity-path transformation; nullptr = exact (deterministic baseline).
  std::shared_ptr<const SimilarityChannel> channel;
  /// Start from random states instead of codebook superpositions.
  bool random_init = false;
  /// Resolve sign() ties randomly (metastability of a real comparator) even
  /// when the similarity channel is deterministic. Ties at exactly zero are
  /// rare after the first iterations, so limit-cycle detection by state
  /// revisit remains meaningful.
  bool random_tie_break = true;
  /// Rectify the similarity vector (negative dot products → 0) before the
  /// channel/projection. This nonlinear cleanup is essential for capacity —
  /// without it the dynamics cycle even at small problem sizes — and matches
  /// the nonnegative similarity activations of the in-memory factorizer
  /// [15] whose readout the H3DFact similarity path inherits.
  bool clip_negative_similarity = true;
  /// Cosine(compose(decode), query) required to declare success.
  double success_threshold = 1.0;
  /// Detect state revisits (meaningful only for deterministic dynamics) and
  /// stop a run at the first limit cycle.
  bool detect_limit_cycles = true;
  /// Record, per iteration, whether the decode matched the ground truth.
  bool record_correct_trace = false;
  /// Optional phase profiler (Fig. 1c), fed by single and batched runs
  /// alike. A profiler belongs to one thread: run_trial_block builds one
  /// network per worker thread, so a factory that hands every worker the
  /// same profiler races.
  PhaseProfiler* profiler = nullptr;
};

/// Outcome of one factorization run.
struct ResonatorResult {
  bool solved = false;                  ///< composed decode matched the query
  std::vector<std::size_t> decoded;     ///< argmax index per factor at stop
  std::size_t iterations = 0;           ///< iterations executed
  bool hit_iteration_cap = false;
  std::optional<CycleInfo> cycle;       ///< limit cycle, if one was detected
  /// Decode==truth per iteration (opt-in). Index 0 is the *pre-iteration*
  /// decode of the initial estimates (ideal readout, no device noise);
  /// index t >= 1 is the decode after iteration t.
  std::vector<char> correct_trace;
};

/// The factorizer. Reusable across problems that share its codebook set.
///
/// One loop serves every entry point: it steps a batch of problems in
/// lockstep, issuing each factor's similarity and projection as one batched
/// engine pass across the live problems (a lone problem takes the per-call
/// kernels instead, which a one-item block would only slow down). Problems
/// retire as they solve, cycle or hit the cap, so a long-tail problem never
/// pays for finished neighbours. Single-problem run() and resume() are
/// batches of one whose device generator is the problem's own, which
/// replays the per-call draw order of every engine.
class ResonatorNetwork {
 public:
  /// Software-exact engine over the given codebooks.
  ResonatorNetwork(std::shared_ptr<const hdc::CodebookSet> set,
                   ResonatorOptions options);

  /// Custom MVM engine (e.g. the modelled H3DFact chip).
  ResonatorNetwork(std::shared_ptr<const hdc::CodebookSet> set,
                   std::shared_ptr<MvmEngine> engine, ResonatorOptions options);

  [[nodiscard]] const ResonatorOptions& options() const { return options_; }
  [[nodiscard]] const hdc::CodebookSet& codebooks() const { return *set_; }

  /// Factorize one problem instance. `rng` drives all stochastic elements.
  /// With an enabled `snapshots` policy, every `snapshots.every` completed
  /// iterations the sink receives a ResonatorSnapshot from which resume()
  /// continues bit-identically.
  [[nodiscard]] ResonatorResult run(const FactorizationProblem& problem,
                                    util::Rng& rng,
                                    const SnapshotPolicy& snapshots = {}) const;

  /// Factorize `problems` concurrently. `rngs` holds one generator per
  /// problem driving that problem's stochastic elements (initial state,
  /// similarity channel, sign tie-breaks) — seeding rngs[b] like a
  /// standalone run reproduces that run exactly on a deterministic engine.
  /// `device_rng` drives engine-level randomness (CIM device noise).
  [[nodiscard]] std::vector<ResonatorResult> run(
      std::span<const FactorizationProblem> problems,
      std::span<util::Rng> rngs, util::Rng& device_rng) const;

  /// Continue an interrupted solve from a snapshot. `rng` is overwritten
  /// with the snapshot's generator state, then drives the remaining
  /// iterations — the combined interrupted + resumed run yields the same
  /// ResonatorResult, bit for bit, as an uninterrupted run(). Throws
  /// std::runtime_error when the snapshot's codebook fingerprint or options
  /// digest does not match this network.
  [[nodiscard]] ResonatorResult resume(const ResonatorSnapshot& snapshot,
                                       util::Rng& rng,
                                       const SnapshotPolicy& snapshots = {}) const;

 private:
  std::shared_ptr<const hdc::CodebookSet> set_;
  std::shared_ptr<MvmEngine> engine_;
  ResonatorOptions options_;
};

/// Deterministic baseline resonator network [9].
ResonatorNetwork make_baseline(std::shared_ptr<const hdc::CodebookSet> set,
                               std::size_t max_iterations);

/// H3DFact stochastic factorizer: Gaussian device noise + sense threshold +
/// 4-bit unsigned ADC on the similarity path (Sec. III-C).
ResonatorNetwork make_h3dfact(std::shared_ptr<const hdc::CodebookSet> set,
                              std::size_t max_iterations, int adc_bits = 4,
                              double sigma_frac = 0.5);

}  // namespace h3dfact::resonator
