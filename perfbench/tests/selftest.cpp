// Self-test of perfbench's own helpers: the nearest-rank percentile, the
// rescaling to the host's reference speed (both clocks), span self-time
// arithmetic, the max-rate search on a synthetic latency curve, and the
// engine/channel timing wrappers, which must reproduce the unwrapped
// factorizer bit for bit. Exits nonzero after reporting every failed check.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "resonator/batched.hpp"
#include "resonator/problem.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void test_percentile() {
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({7.0}, 0.01) == 7.0);
  CHECK(percentile({7.0}, 1.0) == 7.0);
  // Nearest rank: ceil(q·n)-th smallest, unsorted input.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  CHECK(percentile(ten, 0.5) == 5.0);
  CHECK(percentile(ten, 0.51) == 6.0);
  CHECK(percentile(ten, 0.9) == 9.0);
  CHECK(percentile(ten, 0.99) == 10.0);
  CHECK(percentile(ten, 0.1) == 1.0);
  // q·n landing on an integer must not round up a rank: 0.99 · 100 = 99.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  CHECK(percentile(hundred, 0.99) == 99.0);
  CHECK(percentile(hundred, 0.995) == 100.0);
  CHECK(median({4, 1, 3, 2}) == 2.0);  // lower median for even counts
}

void test_reference_speed() {
  // A host at the reference speed leaves walls as they are; one running at
  // half speed (blocks twice as long) halves them.
  const std::vector<double> walls = {1.0, 2.0, 3.0, 4.0, 5.0};
  CHECK(at_reference_speed(walls, {2, 2, 2, 2, 2}, 1, 2.0) == walls);
  const auto half = at_reference_speed(walls, {4, 4, 4, 4, 4}, 2, 2.0);
  for (std::size_t i = 0; i < walls.size(); ++i) CHECK(half[i] == walls[i] / 2);
  // One preempted block is outvoted by the median of its window...
  const auto spike = at_reference_speed(walls, {2, 2, 9, 2, 2}, 1, 2.0);
  CHECK(spike == walls);
  // ...while a lasting slowdown is followed, ends clipped: windows
  // {2,2} {2,2,4} {2,4,4} {4,4,4} {4,4}, lower median.
  const auto step = at_reference_speed({8, 8, 8, 8, 8}, {2, 2, 4, 4, 4}, 1, 2.0);
  CHECK(step == (std::vector<double>{8, 8, 4, 4, 4}));
  // Window 0 uses each stretch's own block.
  const auto own = at_reference_speed({6, 6}, {3, 1}, 0, 1.0);
  CHECK(own == (std::vector<double>{2, 6}));
  bool threw = false;
  try {
    (void)at_reference_speed({1.0}, {}, 1, 1.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  // The clock hands back one scaled wall per record(), in order, and its
  // blocks take measurable time.
  ReferenceClock clock;
  CHECK(clock.record(0.5) == 0);
  CHECK(clock.record(0.25) == 1);
  const auto scaled = clock.scaled();
  CHECK(scaled.size() == 2);
  CHECK(scaled[0] > 0.0 && scaled[1] > 0.0 && scaled[0] == 2 * scaled[1]);
  CHECK(clock.host_speed() > 0.0);

  // The background sampler scales by the blocks started inside the
  // interval, and leaves a wall alone when none did.
  BackgroundReference host;
  const std::int64_t t0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::int64_t t1 = now_ns();
  const double s = host.scale(1.0, t0, t1);
  CHECK(std::isfinite(s) && s > 0.0 && s != 1.0);
  CHECK(host.scale(1.0, t1 + 1'000'000'000'000, t1 + 2'000'000'000'000) == 1.0);
}

void test_span_self_time() {
  // Root [0, 100) with children [10, 30) and [20, 50) (overlapping: union
  // 40) and [90, 120) (clipped to 10); a grandchild does not count
  // against the root.
  std::vector<Span> spans = {
      {"root", 0, 100, 0, -1, -1},  {"a", 10, 30, 1, 0, -1},
      {"b", 20, 50, 2, 0, -1},      {"c", 90, 120, 3, 0, -1},
      {"a.child", 12, 18, 4, 1, -1},
  };
  const std::vector<std::int64_t> self = span_self_ns(spans);
  CHECK(self.size() == spans.size());
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  // Disjoint children add up; a span without children keeps its duration.
  std::vector<Span> flat = {{"p", 0, 10, 7, -1, -1},
                            {"x", 0, 2, 8, 7, -1},
                            {"y", 5, 9, 9, 7, -1}};
  const auto s2 = span_self_ns(flat);
  CHECK(s2[0] == 4);
  CHECK(s2[1] == 2 && s2[2] == 4);

  SpanLog log;
  const std::int64_t r = log.reserve();
  const std::int64_t c = log.add("child", 5, 8, r, 3);
  log.add_reserved(r, "root", 0, 10);
  const auto snap = log.snapshot();
  CHECK(snap.size() == 2);
  CHECK(c != r);
}

void test_max_rate_search() {
  // Synthetic open-loop server: p99 latency grows like 1/(1 - ρ) with a
  // knee at 5500 requests/s; a step passes when p99 <= 50 ms.
  const double knee = 5500.0;
  auto p99_ms = [knee](double qps) {
    const double rho = qps / knee;
    return rho >= 1.0 ? 1e9 : 4.0 / (1.0 - rho);
  };
  auto passes = [&](double qps) { return p99_ms(qps) <= 50.0; };
  // The true limit: 4/(1-ρ) = 50 → ρ = 0.92.
  const double limit = knee * (1.0 - 4.0 / 50.0);
  std::vector<std::pair<double, bool>> probes;
  const double found = search_max_rate(2000.0, 12800.0, 0.05, passes, &probes);
  CHECK(found <= limit);
  CHECK(found >= limit / 1.05);
  CHECK(!probes.empty());
  for (const auto& [qps, ok] : probes) CHECK(ok == passes(qps));
  // Nothing above lo passes: the answer is lo itself.
  CHECK(search_max_rate(1000.0, 8000.0, 0.05, [](double) { return false; }) ==
        1000.0);
  // Everything passes: the answer approaches hi from below within tolerance.
  const double top = search_max_rate(1000.0, 8000.0, 0.05,
                                     [](double) { return true; });
  CHECK(top < 8000.0 && top >= 8000.0 / 1.05);
}

void test_wrappers_bit_identical() {
  using namespace h3dfact;
  util::Rng master(20241016);
  resonator::ProblemGenerator gen(1024, 3, 32, master);
  auto set = gen.codebooks_ptr();
  resonator::ResonatorOptions plain;
  plain.max_iterations = 300;
  plain.detect_limit_cycles = false;
  plain.channel = resonator::make_h3dfact_channel(1024, 4, 0.5, 4.0, 1.5);
  resonator::ResonatorOptions wrapped = plain;
  wrapped.channel = std::make_shared<TimedChannel>(plain.channel);

  std::vector<resonator::FactorizationProblem> problems;
  std::vector<util::Rng> rngs;
  for (std::uint64_t t = 0; t < 6; ++t) {
    util::Rng r(1000 + t);
    problems.push_back(t % 2 ? gen.sample_noisy(0.05, r) : gen.sample(r));
    rngs.push_back(r);
  }
  std::vector<util::Rng> rngs2 = rngs;

  reset_layer_totals();
  resonator::BatchedFactorizer a(set, plain);
  resonator::BatchedFactorizer b(
      set,
      std::make_shared<TimedEngine>(
          std::make_shared<resonator::ExactMvmEngine>(set)),
      wrapped);
  util::Rng da(5), db(5);
  const auto ra = a.run(problems, rngs, da);
  const auto rb = b.run(problems, rngs2, db);
  CHECK(ra.size() == rb.size());
  std::int64_t iters = 0;
  for (std::size_t i = 0; i < ra.size() && i < rb.size(); ++i) {
    CHECK(ra[i].solved == rb[i].solved);
    CHECK(ra[i].iterations == rb[i].iterations);
    CHECK(ra[i].decoded == rb[i].decoded);
    iters += static_cast<std::int64_t>(ra[i].iterations);
  }
  // The generators advanced identically, draw for draw.
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    CHECK(rngs[i].next() == rngs2[i].next());
  }
  const LayerTotals t = collect_layer_totals();
  CHECK(t.problem_iters == iters);
  CHECK(t.sim_calls == t.proj_calls);
  CHECK(t.chan_calls == t.sim_items);
  CHECK(t.proj_nonzero > 0 && t.proj_nonzero <= t.proj_coeffs);

  // The sequential path through the per-call overrides matches as well.
  resonator::ResonatorNetwork na(set, plain);
  resonator::ResonatorNetwork nb(
      set,
      std::make_shared<TimedEngine>(
          std::make_shared<resonator::ExactMvmEngine>(set)),
      wrapped);
  util::Rng sa(77), sb(77);
  const auto qa = na.run(problems[0], sa);
  const auto qb = nb.run(problems[0], sb);
  CHECK(qa.iterations == qb.iterations && qa.decoded == qb.decoded &&
        qa.solved == qb.solved);
}

}  // namespace

int main() {
  test_percentile();
  test_reference_speed();
  test_span_self_time();
  test_max_rate_search();
  test_wrappers_bit_identical();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
