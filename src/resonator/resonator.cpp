#include "resonator/resonator.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hdc/kernels/backend.hpp"

namespace h3dfact::resonator {

void MvmEngine::project_sign(std::size_t factor,
                             std::span<const std::vector<int>> coeffs,
                             std::span<util::Rng* const> tie_rngs,
                             util::Rng& rng,
                             std::span<hdc::BipolarVector> out) {
  const auto sign = [&](std::size_t b, std::span<const int> y) {
    if (tie_rngs[b] != nullptr) {
      hdc::sign_of(y, *tie_rngs[b], out[b]);
    } else {
      hdc::sign_of(y, out[b]);
    }
  };
  if (coeffs.empty()) return;
  if (coeffs.size() == 1) {
    sign(0, project(factor, coeffs[0], rng));
    return;
  }
  hdc::CoeffBlock block(coeffs[0].size(), coeffs.size());
  for (std::size_t b = 0; b < coeffs.size(); ++b) {
    block.set_item(b, coeffs[b]);
  }
  const hdc::CoeffBlock y = project_batch(factor, block, rng);
  for (std::size_t b = 0; b < coeffs.size(); ++b) sign(b, y.item_span(b));
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

void ExactMvmEngine::project_sign(std::size_t factor,
                                  std::span<const std::vector<int>> coeffs,
                                  std::span<util::Rng* const> tie_rngs,
                                  util::Rng&,
                                  std::span<hdc::BipolarVector> out) {
  const auto& k = backend_ ? *backend_ : hdc::kernels::active();
  set_->book(factor).project_sign(coeffs, tie_rngs, out, k);
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
    // Running product P = s ⊙ x̂_1 ⊙ ... ⊙ x̂_F, so that u_f = P ⊙ x̂_f
    // (bind is XOR — exact, order-free).
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

/// The resonator loop. Steps every lane from iteration 1 in lockstep until
/// it solves, cycles or reaches the cap. Each factor's MVMs run as
/// one engine pass across the live lanes and draw engine randomness from
/// `device_rng`; everything else draws from the lane's own generator, so a
/// lane's trajectory does not depend on its neighbours on an engine without
/// per-call randomness.
void iterate(const hdc::CodebookSet& set, MvmEngine& engine,
             const ResonatorOptions& options, std::span<Lane> lanes,
             util::Rng& device_rng) {
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
  // batch, only the engine and channel calls that return by value allocate.
  std::vector<hdc::BipolarVector> us;
  std::vector<std::vector<int>> a;
  std::vector<util::Rng*> tie_rngs;  // a lane's generator, or null: +1 ties
  std::vector<hdc::BipolarVector> next;  // new estimates, swapped in
  hdc::BipolarVector composed;  // the decoded product, for the success check

  for (std::size_t t = 1; t <= options.max_iterations && !active.empty();
       ++t) {
    const std::size_t n = active.size();
    us.resize(n);
    a.resize(n);
    next.resize(n);
    tie_rngs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      tie_rngs[i] = random_ties ? active[i]->rng : nullptr;
    }
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

      // Projection MVM and comparator in one engine pass across the live
      // lanes (its time is booked as projection), then the running
      // product: P ⊙ old_f ⊙ new_f.
      {
        PhaseProfiler::Scope scope(prof, Phase::kProjection);
        engine.project_sign(f, a, tie_rngs, device_rng, next);
        for (std::size_t i = 0; i < n; ++i) {
          Lane& lane = *active[i];
          lane.P.bind_inplace(lane.est[f]);
          lane.P.bind_inplace(next[i]);
          std::swap(lane.est[f], next[i]);
        }
        if (prof) {
          prof->add_ops(Phase::kProjection, M * D * n);
          prof->add_ops(Phase::kActivation, D * n);
        }
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
      still_active.push_back(lane);
    }
    active.swap(still_active);
  }

  for (Lane* lane : active) lane->result.hit_iteration_cap = true;
}

}  // namespace

ResonatorResult ResonatorNetwork::run(const FactorizationProblem& problem,
                                      util::Rng& rng) const {
  check_compatible(*set_, problem);
  Lane lane = start_lane(*set_, options_, problem, rng);
  iterate(*set_, *engine_, options_, std::span<Lane>(&lane, 1), rng);
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
  iterate(*set_, *engine_, options_, lanes, device_rng);
  std::vector<ResonatorResult> results;
  results.reserve(lanes.size());
  for (Lane& lane : lanes) results.push_back(std::move(lane.result));
  return results;
}

ResonatorNetwork make_baseline(std::shared_ptr<const hdc::CodebookSet> set,
                               std::size_t max_iterations) {
  ResonatorOptions opts;
  opts.max_iterations = max_iterations;
  opts.channel = nullptr;
  return ResonatorNetwork(std::move(set), opts);
}

ResonatorNetwork make_h3dfact(std::shared_ptr<const hdc::CodebookSet> set,
                              std::size_t max_iterations) {
  ResonatorOptions opts;
  opts.max_iterations = max_iterations;
  opts.channel = make_h3dfact_channel(set->dim());
  opts.detect_limit_cycles = false;
  return ResonatorNetwork(std::move(set), opts);
}

}  // namespace h3dfact::resonator
