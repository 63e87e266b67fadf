#include "serve/serving.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/codec.hpp"
#include "resonator/batched.hpp"
#include "resonator/problem.hpp"
#include "sweep/transport.hpp"
#include "util/rng.hpp"

namespace h3dfact::serve {

using sweep::Frame;
using sweep::FrameKind;
using sweep::WorkerChannel;

namespace {

/// The deterministic cold path: regenerate the codebooks from the ServeInit
/// seed, exactly run_trial_block's derivation (master rng seeds the
/// codebooks), so every worker and the coordinator's fingerprint copy agree.
std::shared_ptr<resonator::ProblemGenerator> generator_from_seed(
    const sweep::ServeInitFrame& init) {
  util::Rng master(init.seed);
  return std::make_shared<resonator::ProblemGenerator>(
      static_cast<std::size_t>(init.dim),
      static_cast<std::size_t>(init.factors),
      static_cast<std::size_t>(init.codebook_size), master);
}

/// The warm path: load + verify the advertised artifact. Returns nullptr
/// (after logging why) when the artifact is unreachable or does not match
/// the init — the caller then falls back to generator_from_seed.
std::shared_ptr<resonator::ProblemGenerator> generator_from_artifact(
    const sweep::ServeInitFrame& init) {
  try {
    io::LoadedCodebookSet loaded = io::load_codebook_set(init.artifact_path);
    const hdc::CodebookSet& set = *loaded.set;
    if (set.dim() != init.dim || set.factors() != init.factors) {
      throw std::runtime_error(
          "artifact shape D=" + std::to_string(set.dim()) +
          " F=" + std::to_string(set.factors()) + " does not match ServeInit");
    }
    for (std::size_t f = 0; f < set.factors(); ++f) {
      if (set.book(f).size() != init.codebook_size) {
        throw std::runtime_error("artifact codebook " + std::to_string(f) +
                                 " size " + std::to_string(set.book(f).size()) +
                                 " does not match ServeInit M=" +
                                 std::to_string(init.codebook_size));
      }
    }
    if (init.artifact_fingerprint != 0 &&
        loaded.fingerprint != init.artifact_fingerprint) {
      throw std::runtime_error(
          "artifact fingerprint " + std::to_string(loaded.fingerprint) +
          " does not match the ServeInit pin " +
          std::to_string(init.artifact_fingerprint));
    }
    return std::make_shared<resonator::ProblemGenerator>(std::move(loaded.set));
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "[serve_worker] artifact warm-start failed (%s); "
                 "rebuilding from seed\n",
                 e.what());
    return nullptr;
  }
}

}  // namespace

const WorkerSpace& WorkerSpaceCache::space() const {
  if (!space_) throw std::runtime_error("WorkerSpaceCache: no bound space");
  return *space_;
}

void WorkerSpaceCache::reset() { space_.reset(); }

const WorkerSpace& WorkerSpaceCache::bind(const sweep::ServeInitFrame& init) {
  if (init.dim == 0 || init.factors == 0 || init.codebook_size == 0 ||
      init.max_iterations == 0) {
    throw std::runtime_error("ServeInit with zero-sized problem space");
  }
  auto next = std::make_shared<WorkerSpace>();
  std::shared_ptr<resonator::ProblemGenerator> generator;
  if (!init.artifact_path.empty()) {
    generator = generator_from_artifact(init);
    next->from_artifact = generator != nullptr;
  }
  if (!generator) generator = generator_from_seed(init);

  resonator::ResonatorOptions opts;  // baseline defaults, as run_trials
  opts.max_iterations = static_cast<std::size_t>(init.max_iterations);
  next->factorizer = std::make_shared<resonator::BatchedFactorizer>(
      generator->codebooks_ptr(), opts);
  next->generator = std::move(generator);
  next->dim = static_cast<std::size_t>(init.dim);
  next->fingerprint = hdc::set_fingerprint(next->generator->codebooks());

  if (next->from_artifact) {
    ++artifact_loads_;
  } else {
    ++rebuilds_;
  }
  space_ = std::move(next);
  return *space_;
}

sweep::BatchResultFrame solve_serve_batch(const WorkerSpace& space,
                                          const sweep::BatchTaskFrame& task) {
  const std::size_t n = task.requests.size();
  sweep::BatchResultFrame out;
  out.batch_id = task.batch_id;
  out.replies.resize(n);

  // Build the problem/rng pair per request; a request that fails validation
  // gets a kFailed reply and a placeholder problem that is skipped on the
  // way out (the batch still solves for everyone else).
  std::vector<resonator::FactorizationProblem> problems;
  std::vector<util::Rng> rngs;
  std::vector<std::size_t> solve_slot(n, static_cast<std::size_t>(-1));
  problems.reserve(n);
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sweep::FactorRequestFrame& req = task.requests[i];
    sweep::FactorReplyFrame& reply = out.replies[i];
    reply.id = req.id;
    try {
      if (req.encoding == sweep::QueryEncoding::kSeeded) {
        util::Rng r(req.trial_seed);
        problems.push_back(req.flip_prob > 0.0
                               ? space.generator->sample_noisy(req.flip_prob, r)
                               : space.generator->sample(r));
        rngs.push_back(r);  // post-sampling state, as run_trial_block
        reply.correct_known = 1;
      } else {
        const std::size_t want = (space.dim + 63) / 64;
        if (req.query_words.size() != want) {
          throw std::runtime_error("explicit query has " +
                                   std::to_string(req.query_words.size()) +
                                   " words, expected " + std::to_string(want));
        }
        resonator::FactorizationProblem problem;
        problem.codebooks = space.generator->codebooks_ptr();
        hdc::BipolarVector query(space.dim);
        for (std::size_t w = 0; w < want; ++w) {
          query.data()[w] = req.query_words[w];
        }
        if (space.dim % 64 != 0) {  // a hostile tail bit must not skew dots
          query.data()[want - 1] &= (1ull << (space.dim % 64)) - 1;
        }
        problem.query = std::move(query);
        problems.push_back(std::move(problem));
        rngs.emplace_back(req.solve_seed);
        reply.correct_known = 0;
      }
      solve_slot[i] = problems.size() - 1;
    } catch (const std::exception& e) {
      reply.status = sweep::ReplyStatus::kFailed;
      reply.error = e.what();
    }
  }

  if (!problems.empty()) {
    // Engine-level randomness stream; unused by the deterministic exact
    // engine, so batched replies stay bit-identical to standalone solves.
    util::Rng device_rng(task.batch_id);
    const std::vector<resonator::ResonatorResult> results =
        space.factorizer->run(problems, rngs, device_rng);
    for (std::size_t i = 0; i < n; ++i) {
      if (solve_slot[i] == static_cast<std::size_t>(-1)) continue;
      const resonator::ResonatorResult& r = results[solve_slot[i]];
      sweep::FactorReplyFrame& reply = out.replies[i];
      reply.status = sweep::ReplyStatus::kOk;
      reply.solved = r.solved ? 1 : 0;
      reply.iterations = r.iterations;
      reply.decoded.assign(r.decoded.begin(), r.decoded.end());
      if (reply.correct_known != 0) {
        reply.correct =
            problems[solve_slot[i]].is_correct(r.decoded) ? 1 : 0;
      }
      reply.batch = n;
    }
  }
  return out;
}

int serve_factor_worker(int in_fd, int out_fd,
                        const std::string& artifact_override) {
  WorkerChannel ch(in_fd, out_fd, -1, "serve-coordinator");
  WorkerSpaceCache cache;
  auto bind_space = [&](const Frame& frame) {
    sweep::ServeInitFrame init = sweep::decode_serve_init(frame.payload);
    if (!artifact_override.empty()) init.artifact_path = artifact_override;
    const WorkerSpace& space = cache.bind(init);
    std::fprintf(stderr,
                 "[serve_worker] bound problem space D=%llu F=%llu M=%llu "
                 "(%s; rebuilds=%llu artifact_loads=%llu)\n",
                 static_cast<unsigned long long>(init.dim),
                 static_cast<unsigned long long>(init.factors),
                 static_cast<unsigned long long>(init.codebook_size),
                 space.from_artifact ? "artifact" : "seed",
                 static_cast<unsigned long long>(cache.rebuilds()),
                 static_cast<unsigned long long>(cache.artifact_loads()));
    return Frame{FrameKind::kServeReady,
                 sweep::encode_serve_ready({space.fingerprint})};
  };
  auto serve = [&](const Frame& frame) -> std::optional<Frame> {
    switch (frame.kind) {
      case FrameKind::kServeInit:
        try {
          return bind_space(frame);
        } catch (...) {
          cache.reset();
          throw;
        }
      case FrameKind::kBatchTask: {
        const sweep::BatchTaskFrame task =
            sweep::decode_batch_task(frame.payload);
        if (!cache.bound()) {
          throw std::runtime_error("batch received before ServeInit");
        }
        return Frame{FrameKind::kBatchResult,
                     sweep::encode_batch_result(
                         solve_serve_batch(cache.space(), task))};
      }
      default:
        return std::nullopt;  // handshake replays are harmless
    }
  };
  return sweep::run_worker(ch, sweep::PeerRole::kServeWorker, "serve_worker",
                           serve);
}

}  // namespace h3dfact::serve
