#include "resonator/resonator.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hdc/kernels/backend.hpp"
#include "util/hash.hpp"

namespace h3dfact::resonator {

hdc::CoeffBlock MvmEngine::similarity_batch(
    std::size_t factor, std::span<const hdc::BipolarVector> us,
    util::Rng& rng) {
  std::vector<std::vector<int>> items;
  items.reserve(us.size());
  for (const auto& u : us) items.push_back(similarity(factor, u, rng));
  return hdc::CoeffBlock::from_items(items);
}

hdc::CoeffBlock MvmEngine::project_batch(std::size_t factor,
                                         const hdc::CoeffBlock& coeffs,
                                         util::Rng& rng) {
  std::vector<std::vector<int>> items;
  items.reserve(coeffs.batch);
  for (std::size_t b = 0; b < coeffs.batch; ++b) {
    items.push_back(project(factor, coeffs.item(b), rng));
  }
  return hdc::CoeffBlock::from_items(items);
}

ExactMvmEngine::ExactMvmEngine(std::shared_ptr<const hdc::CodebookSet> set)
    : set_(std::move(set)) {
  if (!set_) throw std::invalid_argument("null codebook set");
}

ExactMvmEngine::ExactMvmEngine(std::shared_ptr<const hdc::CodebookSet> set,
                               const hdc::kernels::KernelBackend& backend)
    : set_(std::move(set)), backend_(&backend) {
  if (!set_) throw std::invalid_argument("null codebook set");
}

std::vector<int> ExactMvmEngine::similarity(std::size_t factor,
                                            const hdc::BipolarVector& u,
                                            util::Rng&) {
  const auto& k = backend_ ? *backend_ : hdc::kernels::active();
  return set_->book(factor).similarity(u, k);
}

std::vector<int> ExactMvmEngine::project(std::size_t factor,
                                         const std::vector<int>& coeffs,
                                         util::Rng&) {
  const auto& k = backend_ ? *backend_ : hdc::kernels::active();
  return set_->book(factor).project(coeffs, k);
}

hdc::CoeffBlock ExactMvmEngine::similarity_batch(
    std::size_t factor, std::span<const hdc::BipolarVector> us, util::Rng&) {
  const auto& k = backend_ ? *backend_ : hdc::kernels::active();
  return set_->book(factor).similarity_batch(us, k);
}

hdc::CoeffBlock ExactMvmEngine::project_batch(std::size_t factor,
                                              const hdc::CoeffBlock& coeffs,
                                              util::Rng&) {
  const auto& k = backend_ ? *backend_ : hdc::kernels::active();
  return set_->book(factor).project_batch(coeffs, k);
}

ResonatorNetwork::ResonatorNetwork(std::shared_ptr<const hdc::CodebookSet> set,
                                   ResonatorOptions options)
    : set_(std::move(set)),
      engine_(std::make_shared<ExactMvmEngine>(set_)),
      options_(std::move(options)) {
  if (!set_ || set_->factors() == 0) {
    throw std::invalid_argument("resonator needs a non-empty codebook set");
  }
}

ResonatorNetwork::ResonatorNetwork(std::shared_ptr<const hdc::CodebookSet> set,
                                   std::shared_ptr<MvmEngine> engine,
                                   ResonatorOptions options)
    : set_(std::move(set)), engine_(std::move(engine)), options_(std::move(options)) {
  if (!set_ || set_->factors() == 0) {
    throw std::invalid_argument("resonator needs a non-empty codebook set");
  }
  if (!engine_) throw std::invalid_argument("null MVM engine");
}

namespace {

std::size_t argmax(const std::vector<int>& xs) {
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

std::uint64_t joint_hash(const std::vector<hdc::BipolarVector>& estimates) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& e : estimates) {
    h ^= e.hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool deterministic(const ResonatorOptions& options) {
  return !options.channel || options.channel->deterministic();
}

void check_compatible(const hdc::CodebookSet& set,
                      const FactorizationProblem& problem) {
  if (problem.codebooks.get() != &set &&
      (problem.factors() != set.factors() || problem.dim() != set.dim())) {
    throw std::invalid_argument("problem incompatible with resonator codebooks");
  }
}

/// One problem's state in the lockstep loop.
struct Lane {
  Lane(const FactorizationProblem& p, util::Rng& r,
       std::vector<hdc::BipolarVector> estimates)
      : problem(&p), rng(&r), est(std::move(estimates)), P(p.query) {
    // Running product P = s ⊙ x̂_1 ⊙ ... ⊙ x̂_F, so that u_f = P ⊙ x̂_f.
    // Rebuilt from the estimates, so a resumed run recomputes the identical
    // bits (bind is XOR — exact, order-free).
    for (const auto& v : est) P.bind_inplace(v);
  }

  const FactorizationProblem* problem;
  util::Rng* rng;  ///< initial state, channel noise, sign tie-breaks
  std::vector<hdc::BipolarVector> est;
  hdc::BipolarVector P;
  hdc::BipolarVector P_read;  ///< P at iteration start (synchronous mode)
  ResonatorResult result;
  LimitCycleDetector cycles;
};

/// Initial estimates (superposition of each codebook, or random), the
/// pre-iteration trace entry and the first cycle-detector observation.
Lane start_lane(const hdc::CodebookSet& set, const ResonatorOptions& options,
                const FactorizationProblem& problem, util::Rng& rng) {
  const std::size_t F = set.factors();
  std::vector<hdc::BipolarVector> est(F);
  for (std::size_t f = 0; f < F; ++f) {
    if (options.random_init) {
      est[f] = hdc::BipolarVector::random(set.dim(), rng);
    } else {
      est[f] = options.random_tie_break ? set.book(f).superposition(rng)
                                        : set.book(f).superposition();
    }
  }
  Lane lane(problem, rng, std::move(est));
  lane.result.decoded.assign(F, 0);
  if (options.record_correct_trace) {
    // trace[0]: pre-iteration decode of the initial estimates. Uses the
    // ideal readout (exact nearest-neighbour), so it is a property of the
    // state alone and consumes no engine randomness.
    std::vector<std::size_t> decoded0(F);
    for (std::size_t f = 0; f < F; ++f) {
      decoded0[f] = set.book(f).nearest(lane.P.bind(lane.est[f]));
    }
    lane.result.correct_trace.push_back(problem.is_correct(decoded0) ? 1 : 0);
  }
  if (options.detect_limit_cycles && deterministic(options)) {
    lane.cycles.observe(joint_hash(lane.est), 0);
  }
  return lane;
}

/// The resonator loop. Steps every lane from iteration `start` in lockstep
/// until it solves, cycles or reaches the cap. Each factor's MVMs run as
/// one engine pass across the live lanes and draw engine randomness from
/// `device_rng`; everything else draws from the lane's own generator, so a
/// lane's trajectory does not depend on its neighbours on an engine without
/// per-call randomness.
void iterate(const hdc::CodebookSet& set, MvmEngine& engine,
             const ResonatorOptions& options, std::span<Lane> lanes,
             util::Rng& device_rng, std::size_t start,
             const SnapshotPolicy& snapshots) {
  const std::size_t F = set.factors();
  const std::size_t D = set.dim();
  const bool deterministic_run = deterministic(options);
  // Ties break deterministically in deterministic runs to keep the dynamics
  // a pure function of state; randomly otherwise.
  const bool random_ties = options.random_tie_break || !deterministic_run;
  const bool synchronous = options.update == UpdateMode::kSynchronous;
  const auto success_dot = static_cast<long long>(
      options.success_threshold * static_cast<double>(D));
  PhaseProfiler* prof = options.profiler;

  std::vector<Lane*> active;
  for (Lane& lane : lanes) active.push_back(&lane);
  std::vector<Lane*> still_active;
  // Scratch reused across factors and iterations: once it has grown to the
  // batch, only the engine and channel calls, which return by value,
  // allocate.
  std::vector<hdc::BipolarVector> us;
  std::vector<std::vector<int>> a;
  std::vector<int> y_one;  // a lone problem's projection
  hdc::CoeffBlock coeffs;   // the batch's channel outputs, item by item
  hdc::CoeffBlock y_block;  // the batch's projections, item by item
  hdc::BipolarVector next;  // a new estimate, swapped in for the old one
  hdc::BipolarVector composed;  // the decoded product, for the success check

  for (std::size_t t = start; t <= options.max_iterations && !active.empty();
       ++t) {
    const std::size_t n = active.size();
    us.resize(n);
    a.resize(n);
    // Synchronous mode reads every factor against the state at iteration
    // start. Factor f's own estimate is untouched until its update, so only
    // the running product needs freezing.
    if (synchronous) {
      for (Lane* lane : active) lane->P_read = lane->P;
    }

    for (std::size_t f = 0; f < F; ++f) {
      const std::size_t M = set.book(f).size();

      // Unbind: u_f = s ⊙ ⊙_{f'≠f} x̂_{f'} = P ⊙ x̂_f.
      {
        PhaseProfiler::Scope scope(prof, Phase::kUnbind);
        for (std::size_t i = 0; i < n; ++i) {
          const Lane& lane = *active[i];
          us[i] = synchronous ? lane.P_read : lane.P;
          us[i].bind_inplace(lane.est[f]);
        }
        if (prof) prof->add_ops(Phase::kUnbind, 2 * D * n);
      }

      // Similarity MVM. A lone problem takes the per-call kernel: a one-item
      // block only adds block copies and kernel-pool fan-out.
      {
        PhaseProfiler::Scope scope(prof, Phase::kSimilarity);
        if (n == 1) {
          a[0] = engine.similarity(f, us[0], device_rng);
        } else {
          const hdc::CoeffBlock block =
              engine.similarity_batch(f, us, device_rng);
          for (std::size_t i = 0; i < n; ++i) {
            const std::span<const int> item = block.item_span(i);
            a[i].assign(item.begin(), item.end());
          }
        }
        if (prof) prof->add_ops(Phase::kSimilarity, M * D * n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        active[i]->result.decoded[f] = argmax(a[i]);
        if (options.clip_negative_similarity) {
          for (auto& v : a[i]) v = std::max(v, 0);
        }
      }

      // Similarity channel (noise + ADC).
      {
        PhaseProfiler::Scope scope(prof, Phase::kChannel);
        for (std::size_t i = 0; i < n; ++i) {
          if (options.channel) {
            a[i] = options.channel->apply(a[i], *active[i]->rng);
          }
          if (prof) prof->add_ops(Phase::kChannel, a[i].size());
        }
      }

      // Projection MVM, issued like the similarity.
      {
        PhaseProfiler::Scope scope(prof, Phase::kProjection);
        if (n == 1) {
          y_one = engine.project(f, a[0], device_rng);
        } else {
          coeffs.size = M;
          coeffs.batch = n;
          coeffs.data.resize(M * n);
          for (std::size_t i = 0; i < n; ++i) coeffs.set_item(i, a[i]);
          y_block = engine.project_batch(f, coeffs, device_rng);
        }
        if (prof) prof->add_ops(Phase::kProjection, M * D * n);
      }

      // Activation, then the running product: P ⊙ old_f ⊙ new_f.
      {
        PhaseProfiler::Scope scope(prof, Phase::kActivation);
        for (std::size_t i = 0; i < n; ++i) {
          Lane& lane = *active[i];
          const std::span<const int> y =
              n == 1 ? std::span<const int>(y_one) : y_block.item_span(i);
          if (random_ties) {
            hdc::sign_of(y, *lane.rng, next);
          } else {
            hdc::sign_of(y, next);
          }
          lane.P.bind_inplace(lane.est[f]);
          lane.P.bind_inplace(next);
          std::swap(lane.est[f], next);
        }
        if (prof) prof->add_ops(Phase::kActivation, D * n);
      }
    }

    // Decode + convergence check.
    {
      PhaseProfiler::Scope scope(prof, Phase::kDecode);
      for (Lane* lane : active) {
        ResonatorResult& result = lane->result;
        result.iterations = t;
        set.compose(result.decoded, composed);
        const long long d = composed.dot(lane->problem->query);
        if (options.record_correct_trace) {
          result.correct_trace.push_back(
              lane->problem->is_correct(result.decoded) ? 1 : 0);
        }
        result.solved = d >= success_dot;
      }
      if (prof) prof->add_ops(Phase::kDecode, (F + 1) * D * n);
    }

    // Solved and cycled problems retire from the batch.
    still_active.clear();
    for (Lane* lane : active) {
      if (lane->result.solved) continue;
      if (options.detect_limit_cycles && deterministic_run) {
        if (auto info = lane->cycles.observe(joint_hash(lane->est), t)) {
          lane->result.cycle = info;
          continue;
        }
      }
      if (snapshots.enabled() && t % snapshots.every == 0) {
        ResonatorSnapshot snap;
        snap.iteration = t;
        snap.query = lane->problem->query;
        snap.ground_truth = lane->problem->ground_truth;
        snap.ground_truth_known = !lane->problem->ground_truth.empty();
        snap.query_noise = lane->problem->query_noise;
        snap.estimates = lane->est;
        snap.decoded = lane->result.decoded;
        snap.correct_trace = lane->result.correct_trace;
        snap.rng = lane->rng->save_state();
        snap.cycle_seen = lane->cycles.entries();
        snap.cycle_found = lane->cycles.info();
        snap.codebook_fingerprint = hdc::set_fingerprint(set);
        snap.options_digest = options_fingerprint(options);
        snapshots.sink(snap, snapshots.ctx);
      }
      still_active.push_back(lane);
    }
    active.swap(still_active);
  }

  for (Lane* lane : active) lane->result.hit_iteration_cap = true;
}

}  // namespace

ResonatorResult ResonatorNetwork::run(const FactorizationProblem& problem,
                                      util::Rng& rng,
                                      const SnapshotPolicy& snapshots) const {
  check_compatible(*set_, problem);
  Lane lane = start_lane(*set_, options_, problem, rng);
  iterate(*set_, *engine_, options_, std::span<Lane>(&lane, 1), rng, 1,
          snapshots);
  return std::move(lane.result);
}

std::vector<ResonatorResult> ResonatorNetwork::run(
    std::span<const FactorizationProblem> problems, std::span<util::Rng> rngs,
    util::Rng& device_rng) const {
  if (rngs.size() != problems.size()) {
    throw std::invalid_argument("one RNG per problem required");
  }
  for (const auto& problem : problems) check_compatible(*set_, problem);
  // Per-problem init in batch order, so every generator's stream lines up
  // draw for draw with a standalone run.
  std::vector<Lane> lanes;
  lanes.reserve(problems.size());
  for (std::size_t b = 0; b < problems.size(); ++b) {
    lanes.push_back(start_lane(*set_, options_, problems[b], rngs[b]));
  }
  iterate(*set_, *engine_, options_, lanes, device_rng, 1, {});
  std::vector<ResonatorResult> results;
  results.reserve(lanes.size());
  for (Lane& lane : lanes) results.push_back(std::move(lane.result));
  return results;
}

ResonatorResult ResonatorNetwork::resume(const ResonatorSnapshot& snapshot,
                                         util::Rng& rng,
                                         const SnapshotPolicy& snapshots) const {
  const std::uint64_t have = hdc::set_fingerprint(*set_);
  if (snapshot.codebook_fingerprint != have) {
    throw std::runtime_error(
        "resonator snapshot was taken over a different codebook set "
        "(snapshot fingerprint " + std::to_string(snapshot.codebook_fingerprint) +
        ", network " + std::to_string(have) + ")");
  }
  if (snapshot.options_digest != options_fingerprint(options_)) {
    throw std::runtime_error(
        "resonator snapshot was taken under different resonator options; "
        "resuming would diverge from the uninterrupted run");
  }
  if (snapshot.estimates.size() != set_->factors() ||
      snapshot.decoded.size() != set_->factors() ||
      snapshot.query.dim() != set_->dim()) {
    throw std::runtime_error("resonator snapshot shape does not match the "
                             "network's codebook set");
  }

  FactorizationProblem problem;
  problem.codebooks = set_;
  problem.query = snapshot.query;
  problem.ground_truth = snapshot.ground_truth;
  problem.query_noise = snapshot.query_noise;

  rng.restore_state(snapshot.rng);

  Lane lane(problem, rng, snapshot.estimates);
  lane.result.decoded = snapshot.decoded;
  lane.result.correct_trace = snapshot.correct_trace;
  lane.result.iterations = static_cast<std::size_t>(snapshot.iteration);
  lane.cycles.restore(snapshot.cycle_seen, snapshot.cycle_found);

  iterate(*set_, *engine_, options_, std::span<Lane>(&lane, 1), rng,
          static_cast<std::size_t>(snapshot.iteration) + 1, snapshots);
  return std::move(lane.result);
}

std::uint64_t options_fingerprint(const ResonatorOptions& options) {
  // FNV-1a over every dynamics-relevant field. The channel's internal
  // parameters are not reachable generically; its presence and determinism
  // class are (they decide tie-break + cycle-detection behavior). The
  // profiler pointer is observability only and excluded.
  util::Fnv1a h;
  h.u64(static_cast<std::uint64_t>(options.update));
  h.u64(options.max_iterations);
  h.u64(options.channel ? (options.channel->deterministic() ? 1 : 2) : 0);
  h.u64(options.random_init ? 1 : 0);
  h.u64(options.random_tie_break ? 1 : 0);
  h.u64(options.clip_negative_similarity ? 1 : 0);
  std::uint64_t threshold_bits = 0;
  static_assert(sizeof threshold_bits == sizeof options.success_threshold);
  std::memcpy(&threshold_bits, &options.success_threshold,
              sizeof threshold_bits);
  h.u64(threshold_bits);
  h.u64(options.detect_limit_cycles ? 1 : 0);
  h.u64(1);  // a cycle always stops the run; keeps stored digests valid
  h.u64(options.record_correct_trace ? 1 : 0);
  return h.digest();
}

ResonatorNetwork make_baseline(std::shared_ptr<const hdc::CodebookSet> set,
                               std::size_t max_iterations) {
  ResonatorOptions opts;
  opts.max_iterations = max_iterations;
  opts.channel = nullptr;
  return ResonatorNetwork(std::move(set), opts);
}

ResonatorNetwork make_h3dfact(std::shared_ptr<const hdc::CodebookSet> set,
                              std::size_t max_iterations, int adc_bits,
                              double sigma_frac) {
  ResonatorOptions opts;
  opts.max_iterations = max_iterations;
  opts.channel = make_h3dfact_channel(set->dim(), adc_bits, sigma_frac);
  opts.detect_limit_cycles = false;
  return ResonatorNetwork(std::move(set), opts);
}

}  // namespace h3dfact::resonator
