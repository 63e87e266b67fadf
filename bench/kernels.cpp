// Microbenches of the hot kernels: packed binding, codebook similarity
// (XOR+popcount), integer projection, sign activation (tie-free and with
// random tie-breaks), the fused projection and comparator per coefficient
// mix, the device-level crossbar MVM, and the
// batched-vs-per-call MVM paths of the batched engine. These quantify why
// MVMs dominate (Fig. 1c), track kernel regressions, and show the batched
// amortization (compare the *PerCall / *Batch pairs at equal {M, B}
// arguments). Built only when google-benchmark is installed; configure
// skips this target otherwise.
//
// `--json=FILE` writes a machine-readable artifact (see docs/kernels.md for
// the schema): benchmark names, ns/op, items/s and the active kernel
// backend id. CI's kernel-baseline job diffs that artifact against
// bench/baselines/ to gate kernel regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cim/crossbar.hpp"
#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/capability.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "resonator/channels.hpp"
#include "resonator/resonator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace h3dfact;

namespace {

std::vector<hdc::BipolarVector> random_queries(std::size_t dim, std::size_t n,
                                               util::Rng& rng) {
  std::vector<hdc::BipolarVector> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    us.push_back(hdc::BipolarVector::random(dim, rng));
  }
  return us;
}

void BM_Bind(benchmark::State& state) {
  util::Rng rng(1);
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = hdc::BipolarVector::random(dim, rng);
  auto b = hdc::BipolarVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.bind(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Bind)->Arg(1024)->Arg(8192);

void BM_Similarity(benchmark::State& state) {
  util::Rng rng(2);
  const auto m = static_cast<std::size_t>(state.range(0));
  hdc::Codebook cb(1024, m, rng);
  auto u = hdc::BipolarVector::random(1024, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.similarity(u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 1024);
}
BENCHMARK(BM_Similarity)->Arg(16)->Arg(256)->Arg(512);

void BM_Projection(benchmark::State& state) {
  util::Rng rng(3);
  const auto m = static_cast<std::size_t>(state.range(0));
  hdc::Codebook cb(1024, m, rng);
  std::vector<int> coeffs(m);
  for (auto& c : coeffs) c = static_cast<int>(rng.range(-7, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.project(coeffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 1024);
}
BENCHMARK(BM_Projection)->Arg(16)->Arg(256)->Arg(512);

// --- batched vs per-call MVM paths (args: {M, batch}) ---------------------

void BM_SimilarityPerCall(benchmark::State& state) {
  util::Rng rng(7);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  auto us = random_queries(1024, batch, rng);
  for (auto _ : state) {
    for (const auto& u : us) benchmark::DoNotOptimize(cb.similarity(u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_SimilarityPerCall)->Args({256, 16})->Args({512, 16});

void BM_SimilarityBatch(benchmark::State& state) {
  util::Rng rng(7);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  auto us = random_queries(1024, batch, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.similarity_batch(us));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_SimilarityBatch)->Args({256, 16})->Args({512, 16});

void BM_ProjectionPerCall(benchmark::State& state) {
  util::Rng rng(8);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  std::vector<std::vector<int>> items(batch, std::vector<int>(m));
  for (auto& item : items) {
    for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
  }
  for (auto _ : state) {
    for (const auto& item : items) benchmark::DoNotOptimize(cb.project(item));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_ProjectionPerCall)->Args({256, 16})->Args({512, 16});

void BM_ProjectionBatch(benchmark::State& state) {
  util::Rng rng(8);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  hdc::Codebook cb(1024, m, rng);
  std::vector<std::vector<int>> items(batch, std::vector<int>(m));
  for (auto& item : items) {
    for (auto& c : item) c = static_cast<int>(rng.range(-7, 7));
  }
  const hdc::CoeffBlock coeffs = hdc::CoeffBlock::from_items(items);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.project_batch(coeffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_ProjectionBatch)->Args({256, 16})->Args({512, 16});

// End-to-end: B factorizations through one exact engine — either as B
// single runs, each a batch of one that the resonator loop drives through
// the per-call kernels, or as one batch run whose MVMs are batched engine
// passes across the live problems. A success threshold above cosine 1 pins
// every run to exactly `cap` iterations, and random init keeps setup cost
// off the measurement. Both run the default update schedule, so they
// execute the same MVMs and the difference is the MVM path itself.
resonator::ResonatorOptions fixed_work_options(std::size_t cap) {
  resonator::ResonatorOptions opts;
  opts.max_iterations = cap;
  opts.success_threshold = 2.0;
  opts.detect_limit_cycles = false;
  opts.random_init = true;
  return opts;
}

void BM_FactorizeSequential(benchmark::State& state) {
  util::Rng rng(9);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  auto set = std::make_shared<hdc::CodebookSet>(1024, 3, m, rng);
  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems;
  for (std::size_t i = 0; i < batch; ++i) problems.push_back(gen.sample(rng));
  resonator::ResonatorNetwork net(set, fixed_work_options(5));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      util::Rng run_rng(100 + i);
      benchmark::DoNotOptimize(net.run(problems[i], run_rng));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_FactorizeSequential)->Args({256, 16});

void BM_FactorizeBatched(benchmark::State& state) {
  util::Rng rng(9);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  auto set = std::make_shared<hdc::CodebookSet>(1024, 3, m, rng);
  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> problems;
  for (std::size_t i = 0; i < batch; ++i) problems.push_back(gen.sample(rng));
  resonator::ResonatorNetwork factorizer(set, fixed_work_options(5));
  for (auto _ : state) {
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < batch; ++i) rngs.emplace_back(100 + i);
    util::Rng device_rng(1);
    benchmark::DoNotOptimize(factorizer.run(problems, rngs, device_rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_FactorizeBatched)->Args({256, 16});

// --- engine-level threading (args: {M, batch, threads; 0 = auto}) ---------
// One ExactMvmEngine pass (similarity_batch + project_batch over the same
// factor) at a pinned pool size. Compare the threads=1 row against the
// threads=0 (auto = hardware) row at equal {M, batch}: the ratio is the
// intra-engine threading win the kernel pool buys on this host. Results are
// bit-identical across rows by the pool's determinism contract, so the
// comparison is pure wall time.
void BM_EngineMvmBatchThreads(benchmark::State& state) {
  util::Rng rng(10);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  auto set = std::make_shared<hdc::CodebookSet>(1024, 1, m, rng);
  resonator::ExactMvmEngine engine(set);
  auto us = random_queries(1024, batch, rng);
  hdc::kernels::set_kernel_threads(threads);
  util::Rng call_rng(11);
  for (auto _ : state) {
    hdc::CoeffBlock sims = engine.similarity_batch(0, us, call_rng);
    benchmark::DoNotOptimize(engine.project_batch(0, sims, call_rng));
  }
  hdc::kernels::set_kernel_threads(0);  // restore env/auto sizing
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024 * 2);
}
BENCHMARK(BM_EngineMvmBatchThreads)
    ->Args({512, 64, 1})
    ->Args({512, 64, 2})
    ->Args({512, 64, 0});

void BM_SimilarityBatchThreads(benchmark::State& state) {
  util::Rng rng(12);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  hdc::Codebook cb(1024, m, rng);
  auto us = random_queries(1024, batch, rng);
  hdc::kernels::set_kernel_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cb.similarity_batch(us));
  }
  hdc::kernels::set_kernel_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * batch) * 1024);
}
BENCHMARK(BM_SimilarityBatchThreads)
    ->Args({512, 64, 1})
    ->Args({512, 64, 0});

void BM_SignActivation(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<int> y(1024);
  for (auto& v : y) v = static_cast<int>(rng.range(-100, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::sign_of(y));
  }
}
BENCHMARK(BM_SignActivation);

// The random tie-break overload on projections with the tie mix measured
// on solve_m16's loop (D=1024 F=3 M=16): 87 % of projections have no zero
// count, ~9 % have 1–599 and 4.4 % are all zero. A pool of 128 seeded
// vectors is cycled, so each timing-loop iteration is one sign_of call.
void BM_SignActivationTies(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<std::vector<int>> pool(128, std::vector<int>(1024));
  for (auto& y : pool) {
    const double kind = rng.uniform();
    for (auto& v : y) {
      v = static_cast<int>(rng.range(1, 100)) * rng.bipolar();
    }
    if (kind < 0.044) {
      std::fill(y.begin(), y.end(), 0);
    } else if (kind < 0.13) {
      const auto ties = static_cast<std::size_t>(rng.range(1, 599));
      for (std::size_t t = 0; t < ties; ++t) y[rng.below(y.size())] = 0;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::sign_of(pool[next], rng));
    next = (next + 1) % pool.size();
  }
}
BENCHMARK(BM_SignActivationTies);

// The fused comparator (Codebook::project_sign) on one item at D=1024 and
// M=16, per coefficient mix: no code (every element ties), one code, two
// equal codes (half the elements tie), codes 15, 6 and 9 (a quarter tie)
// and five codes. The first three take the packed path and the last two
// are summed by project_rows. A pool of 64 items, each with the mix's
// codes at random positions and signs, is cycled; ties draw from one
// generator.
enum class SignMix { kZero, kOneCode, kTwoEqual, kThreeTies, kFiveCodes };

void BM_ProjectSign(benchmark::State& state, SignMix mix) {
  constexpr std::size_t kM = 16;
  util::Rng rng(14);
  hdc::Codebook cb(1024, kM, rng);
  std::vector<int> codes;
  switch (mix) {
    case SignMix::kZero:
      break;
    case SignMix::kOneCode:
      codes = {9};
      break;
    case SignMix::kTwoEqual:
      codes = {7, 7};
      break;
    case SignMix::kThreeTies:
      codes = {15, 6, 9};
      break;
    case SignMix::kFiveCodes:
      codes = {12, 5, 9, 3, 7};
      break;
  }
  std::vector<std::vector<int>> pool(64, std::vector<int>(kM, 0));
  for (auto& c : pool) {
    for (const int code : codes) {
      std::size_t slot = rng.below(kM);
      while (c[slot] != 0) slot = rng.below(kM);
      c[slot] = code * rng.bipolar();
    }
  }
  std::vector<hdc::BipolarVector> out(1, hdc::BipolarVector(1024));
  util::Rng tie_rng(15);
  util::Rng* const rngs[] = {&tie_rng};
  const hdc::kernels::KernelBackend& backend = hdc::kernels::active();
  std::size_t next = 0;
  for (auto _ : state) {
    cb.project_sign({&pool[next], 1}, rngs, out, backend);
    benchmark::DoNotOptimize(out[0].data());
    benchmark::ClobberMemory();
    next = (next + 1) % pool.size();
  }
}
BENCHMARK_CAPTURE(BM_ProjectSign, zero, SignMix::kZero);
BENCHMARK_CAPTURE(BM_ProjectSign, one_code, SignMix::kOneCode);
BENCHMARK_CAPTURE(BM_ProjectSign, two_equal, SignMix::kTwoEqual);
BENCHMARK_CAPTURE(BM_ProjectSign, three_ties, SignMix::kThreeTies);
BENCHMARK_CAPTURE(BM_ProjectSign, five_codes, SignMix::kFiveCodes);

// The paper-default H3DFact channel at D = 1024 on one similarity vector
// of M entries. M = 16 is shaped like solve_m16's traffic: a pool of 64
// vectors cycled, each with one entry of the factor being solved, uniform
// in [0, D], and M − 1 crosstalk entries drawn N(0, √D), all clipped at 0,
// so that about 14 % of entries code nonzero. M = 256 and 512 draw every
// entry uniformly from [−200, 200].
void BM_H3dChannel(benchmark::State& state) {
  util::Rng rng(5);
  auto channel = resonator::make_h3dfact_channel(1024);
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<int>> pool(m == 16 ? 64 : 1, std::vector<int>(m));
  for (auto& sims : pool) {
    for (auto& s : sims) {
      s = m == 16 ? static_cast<int>(std::max(0L, std::lround(rng.gaussian(
                                                   0.0, 32.0))))
                  : static_cast<int>(rng.range(-200, 200));
    }
    if (m == 16) sims[rng.below(m)] = static_cast<int>(rng.range(0, 1024));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel->apply(pool[next], rng));
    next = (next + 1) % pool.size();
  }
}
BENCHMARK(BM_H3dChannel)->Arg(16)->Arg(256)->Arg(512);

void BM_CrossbarMvm(benchmark::State& state) {
  util::Rng rng(6);
  const auto rows = static_cast<std::size_t>(state.range(0));
  cim::RramCrossbar xb(rows, rows, device::default_rram_40nm(), rng);
  std::vector<std::int8_t> w(rows * rows);
  for (auto& x : w) x = static_cast<std::int8_t>(rng.bipolar());
  xb.program(w, rng);
  std::vector<std::int8_t> input(rows);
  for (auto& x : input) x = static_cast<std::int8_t>(rng.bipolar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.mvm_bipolar(input, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_CrossbarMvm)->Arg(64)->Arg(256);

// --- --json artifact --------------------------------------------------------

struct KernelTiming {
  std::string name;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;  // 0 when the bench reports no item count
};

// Hand-rolled writer (matching the sweep emitters' style): a flat object
// with provenance fields plus one row per timed benchmark. The `backend`
// field is the kernel backend every hdc-layer bench ran through, which is
// what makes two artifacts comparable. `harness` stays in the schema so the
// checked-in baselines keep validating.
void write_json(const std::string& path,
                const std::vector<KernelTiming>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open --json output file: " + path);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"backend\": \"%s\",\n",
               h3dfact::hdc::kernels::active().name);
  std::fprintf(f, "  \"harness\": \"google-benchmark\",\n");
  std::fprintf(f, "  \"benchmarks\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelTiming& r = rows[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"iterations\": %zu, "
                 "\"ns_per_op\": %.6g, \"items_per_sec\": %.6g}",
                 i == 0 ? "" : ",", r.name.c_str(), r.iterations, r.ns_per_op,
                 r.items_per_sec);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu benchmark timings to %s (backend: %s)\n",
               rows.size(), path.c_str(), h3dfact::hdc::kernels::active().name);
}

// Pull our own flags out of argv (google-benchmark rejects flags it does
// not know) and return the remaining argc.
int extract_own_flags(int argc, char** argv, std::string* json_path,
                      bool* list_backends) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      *json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--list-backends") == 0) {
      *list_backends = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

// `--list-backends`: machine-greppable probe for CI — one backend name per
// line plus the detected capability set, then exit. The avx512 CI leg runs
// this to decide between a real forced-avx512 pass and a loud skip.
int print_backends() {
  for (const auto* b : h3dfact::hdc::kernels::available()) {
    std::printf("%s\n", b->name);
  }
  std::printf("capabilities: %s\n",
              h3dfact::hdc::kernels::probe().to_string().c_str());
  return 0;
}

// Collects every run for the --json artifact and forwards every call to the
// display reporter that --benchmark_format and --benchmark_color select.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  explicit CollectingReporter(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      KernelTiming t;
      t.name = run.benchmark_name();
      t.iterations = static_cast<std::size_t>(run.iterations);
      t.ns_per_op = run.iterations == 0
                        ? 0.0
                        : 1e9 * run.real_accumulated_time /
                              static_cast<double>(run.iterations);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) t.items_per_sec = it->second;
      rows.push_back(std::move(t));
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  std::vector<KernelTiming> rows;

 private:
  benchmark::BenchmarkReporter* display_;  // owned by google-benchmark
};

}  // namespace

static int body(int argc, char** argv) {
  std::string json_path;
  bool list_backends = false;
  argc = extract_own_flags(argc, argv, &json_path, &list_backends);
  if (list_backends) return print_backends();
  benchmark::Initialize(&argc, argv);
  // A typoed flag (e.g. --jsn=, or --json with a space) must fail up front,
  // not after a multi-minute run that silently writes no artifact.
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Status lines go to stderr, so stdout holds only the selected format.
  std::fprintf(stderr, "kernel backend: %s\n",
               h3dfact::hdc::kernels::active().name);
  CollectingReporter reporter(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) write_json(json_path, reporter.rows);
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
