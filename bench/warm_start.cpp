// warm_start: cold-start vs warm-start worker bind time (docs/serialization.md).
//
// Measures, for one serve problem space, the three ways a worker can come
// to hold its codebooks — regenerating from the seed (cold), loading a
// packed H3DA artifact into the heap, and zero-copy mmapping it — plus the
// pack cost and the memoized re-bind (WorkerSpaceCache fast path). Each
// timing is the minimum over --repeats runs. Emits one JSON object to
// --out (default stdout) so CI can archive the numbers next to ns/op.
//
// Flags: --dim=D --factors=F --M=M --seed=N [1024, 3, 16, 1]
//        --repeats=N          timing repetitions, min taken [5]
//        --artifact=PATH      where to write the packed artifact
//                             [warm_start.h3da]
//        --out=PATH           JSON destination [- = stdout]

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "serve/serving.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace h3dfact;

namespace {

using Clock = std::chrono::steady_clock;

/// Minimum wall time of `fn()` over `repeats` runs, in microseconds.
template <typename Fn>
double min_us(int repeats, Fn&& fn) {
  double best = -1.0;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (best < 0.0 || us < best) best = us;
  }
  return best;
}

}  // namespace

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto dim = static_cast<std::size_t>(cli.u64("dim", 1024));
  const auto factors = static_cast<std::size_t>(cli.u64("factors", 3));
  const auto M = static_cast<std::size_t>(cli.u64("M", 16));
  const auto seed = cli.u64("seed", 1);
  const int repeats = static_cast<int>(
      cli.u64("repeats", 5, std::numeric_limits<int>::max()));
  const std::string artifact = cli.str("artifact", "warm_start.h3da");
  const std::string out = cli.str("out", "-");
  cli.reject_unread();

  // Cold path: the deterministic seed rebuild every v2 worker ran on
  // every ServeInit.
  const double cold_us = min_us(repeats, [&] {
    util::Rng master(seed);
    resonator::ProblemGenerator gen(dim, factors, M, master);
    (void)gen.codebooks().dim();
  });

  util::Rng master(seed);
  resonator::ProblemGenerator gen(dim, factors, M, master);
  const std::uint64_t fingerprint = hdc::set_fingerprint(gen.codebooks());
  const double pack_us = min_us(repeats, [&] {
    io::ArtifactWriter writer;
    io::add_codebook_set(writer, gen.codebooks());
    writer.write(artifact);
  });

  const double heap_us = min_us(repeats, [&] {
    (void)io::load_codebook_set(artifact, io::LoadMode::kHeap);
  });
  double mmap_us = -1.0;
  try {
    mmap_us = min_us(repeats, [&] {
      (void)io::load_codebook_set(artifact, io::LoadMode::kMmap);
    });
  } catch (const io::ArtifactError&) {
    // mmap unavailable on this platform; report -1 and keep going.
  }

  // Worker-level bind times: cold seed bind, artifact bind, and the
  // memoized re-bind of an identical ServeInit (the satellite fix).
  sweep::ServeInitFrame init;
  init.dim = dim;
  init.factors = factors;
  init.codebook_size = M;
  init.max_iterations = 100;
  init.seed = seed;
  const double bind_seed_us = min_us(repeats, [&] {
    serve::WorkerSpaceCache cache;
    (void)cache.bind(init);
  });
  init.artifact_path = artifact;
  init.artifact_fingerprint = fingerprint;
  const double bind_artifact_us = min_us(repeats, [&] {
    serve::WorkerSpaceCache cache;
    (void)cache.bind(init);
  });
  serve::WorkerSpaceCache cache;
  (void)cache.bind(init);
  const double rebind_us = min_us(repeats, [&] { (void)cache.bind(init); });

  std::FILE* f = out == "-" ? stdout : std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[warm_start] cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\"dim\":%zu,\"factors\":%zu,\"M\":%zu,\"seed\":%llu,"
      "\"repeats\":%d,\"fingerprint\":\"0x%016llx\","
      "\"cold_build_us\":%.1f,\"pack_us\":%.1f,"
      "\"artifact_heap_us\":%.1f,\"artifact_mmap_us\":%.1f,"
      "\"bind_seed_us\":%.1f,\"bind_artifact_us\":%.1f,"
      "\"memoized_rebind_us\":%.3f}\n",
      dim, factors, M, static_cast<unsigned long long>(seed), repeats,
      static_cast<unsigned long long>(fingerprint), cold_us, pack_us,
      heap_us, mmap_us, bind_seed_us, bind_artifact_us, rebind_us);
  if (f != stdout) std::fclose(f);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
