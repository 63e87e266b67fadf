// dse_search: dse::run_search over the registered "dse" grid with every
// parameter passed explicitly, in-process. One ThermalGrid::solve per
// distinct cell dominates its wall time, so this is the workload that loads
// the arch, ppa, thermal and dse layers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dse/evaluate.hpp"
#include "dse/frontier.hpp"
#include "dse/halving.hpp"
#include "dse/pareto.hpp"
#include "dse/space.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/timing_model.hpp"
#include "sweep/registry.hpp"
#include "thermal/stack.hpp"

namespace perfbench {

using namespace h3dfact;

namespace {

constexpr std::size_t kThermalGrid = 24;

sweep::GridRef make_ref(std::uint64_t seed) {
  sweep::GridRef ref;
  ref.name = dse::kDesignGrid;
  ref.params = {
      {"designs", "hybrid2d,h3d"},
      {"rows", "256"},
      {"subarrays", "4"},
      {"adc", "4,8"},
      {"f", "3"},
      {"m", "16"},
      {"trials", "40"},
      {"cap", "1000"},
      {"seed", std::to_string(seed)},
      {"sigma", "0.5"},
      {"theta", "1.5"},
      {"clip", "4.0"},
      {"thermal", std::to_string(kThermalGrid)},
  };
  return ref;
}

/// Per-cell timing of the hardware side, calling the ppa and thermal
/// functions the search calls, under a timer.
struct HardwarePass {
  double ppa_s = 0.0;
  double thermal_s = 0.0;
  std::size_t solves = 0;
  std::uint64_t sweeps = 0;
  std::size_t unconverged = 0;
};

HardwarePass time_hardware(const sweep::SweepSpec& spec) {
  HardwarePass h;
  for (std::size_t i = 0; i < spec.cell_count(); ++i) {
    const sweep::Cell cell = spec.cell(i);
    const arch::DesignSpec design = dse::design_from_params(cell.params);
    const auto t0 = Clock::now();
    const ppa::AreaBreakdown area = ppa::compute_area(design);
    const ppa::TimingResult timing = ppa::compute_timing(design);
    const ppa::EnergyResult energy = ppa::compute_energy(design);
    const auto floorplan = ppa::build_floorplan(design);
    const auto t1 = Clock::now();
    thermal::StackParams stack;
    stack.grid_nx = kThermalGrid;
    stack.grid_ny = kThermalGrid;
    const thermal::ThermalSolution sol =
        thermal::build_stack(floorplan, stack).solve();
    const auto t2 = Clock::now();
    (void)area;
    (void)timing;
    (void)energy;
    h.ppa_s += seconds_between(t0, t1);
    h.thermal_s += seconds_between(t1, t2);
    ++h.solves;
    h.sweeps += sol.sweeps;
    if (!sol.converged) ++h.unconverged;
  }
  return h;
}

/// Records the search's cells, rungs and the hardware evaluation between
/// rungs from the progress callback (cells run inline, one after another):
/// a rung starts when its first cell started and ends at its last callback;
/// the gaps between rungs are the search's own ppa + thermal work.
struct SearchTrace {
  SpanLog* spans = nullptr;
  std::int64_t root = -1;
  std::int64_t rung_id = -1, rung_start = 0, last_end = 0;
  double cell_s = 0.0, rung_s = 0.0, hardware_s = 0.0;
  std::int64_t bookkeeping_ns = 0;  ///< time spent recording spans

  void hardware_gap(std::int64_t until) {
    if (last_end == 0) return;
    spans->add("dse.hardware", last_end, until, root);
    hardware_s += static_cast<double>(until - last_end) * 1e-9;
  }

  void on_cell(const sweep::CellResult& c, std::size_t done, std::size_t total) {
    const std::int64_t end = now_ns();
    const auto start = end - static_cast<std::int64_t>(c.wall_seconds * 1e9);
    cell_s += c.wall_seconds;
    if (spans == nullptr) return;
    if (done == 1) {
      hardware_gap(start);
      rung_id = spans->reserve();
      rung_start = start;
    }
    spans->add("dse.cell", start, end, rung_id,
               static_cast<std::int64_t>(c.index));
    if (done == total) {
      spans->add_reserved(rung_id, "dse.rung", rung_start, end, root);
      rung_s += static_cast<double>(end - rung_start) * 1e-9;
      last_end = end;
    }
    bookkeeping_ns += now_ns() - end;
  }
};

struct SearchRun {
  dse::SearchResult result;
  std::string frontier;
  double wall_s = 0.0;
};

SearchRun search_once(const sweep::GridRef& ref, unsigned threads,
                      SearchTrace& trace) {
  dse::SearchOptions so;
  so.rungs = 2;
  so.eta = 2.0;
  so.sweep.shards = 1;
  so.sweep.threads_per_cell = threads;
  so.sweep.use_processes = false;
  so.sweep.progress = [&trace](const sweep::CellResult& c, std::size_t done,
                               std::size_t total) {
    trace.on_cell(c, done, total);
  };
  SearchRun run;
  const std::int64_t t0 = now_ns();
  run.result = dse::run_search(ref, so);
  const std::int64_t t1 = now_ns();
  run.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  run.frontier =
      dse::frontier_json_string(dse::kDesignGrid, ref, run.result.frontier);
  if (trace.spans != nullptr) {
    trace.hardware_gap(t1);
    trace.spans->add_reserved(trace.root, "dse.search", t0, t1);
  }
  return run;
}

/// Frontier sanity: non-empty, every point converged, and no frontier
/// point dominated by any surviving design.
void check_search(const SearchRun& run, Result& r) {
  if (run.result.frontier.empty()) r.fail("dse frontier is empty");
  std::vector<dse::MetricPoint> all;
  for (const dse::DesignPoint& p : run.result.points) {
    all.push_back(dse::to_metric_point(p));
  }
  for (const dse::DesignPoint& f : run.result.frontier) {
    const dse::MetricPoint fm = dse::to_metric_point(f);
    for (const dse::MetricPoint& m : all) {
      if (dse::dominates(m, fm, dse::design_objectives())) {
        r.fail("frontier point " + std::to_string(f.index) + " is dominated");
      }
    }
  }
}

}  // namespace

Result run_dse(const Options& opt) {
  const unsigned threads = std::min(4u, usable_cpus());
  Result r;
  stamp_threads(r, threads, 1);
  hdc::kernels::set_kernel_threads(1);
  dse::register_design_spaces();
  const sweep::GridRef ref = make_ref(opt.seed);

  // Set-up: grid build and cell resolve, microseconds each, so timed in
  // batches of 64. The host's speed shifts over seconds, so samples are
  // taken before and after every search, each followed by a reference block,
  // and the median batch mean at reference speed reported. (On wall clock
  // the median read 7.5 µs in some processes and 12.9 µs in others.)
  ReferenceClock clock;
  std::vector<std::size_t> setup_marks;
  std::size_t resolved = 0;
  auto sample_setup = [&]() {
    for (int s = 0; s < 7; ++s) {
      const auto t0 = Clock::now();
      for (int b = 0; b < 64; ++b) {
        const sweep::SweepSpec spec = sweep::build_grid(ref);
        for (std::size_t i = 0; i < spec.cell_count(); ++i) {
          resolved += spec.cell(i).params.size();
        }
      }
      setup_marks.push_back(
          clock.record(seconds_between(t0, Clock::now()) / 64.0));
    }
  };
  sample_setup();

  // Untraced: the search repeated to fill --seconds. Traced: the hardware
  // functions timed one by one, then one search with spans recorded.
  const std::size_t reps =
      opt.trace ? 1
                : static_cast<std::size_t>(
                      std::max(1.0, std::round(opt.seconds / 7.0)));
  r.stamp["searches"] = std::to_string(reps);
  SpanLog spans;
  SearchTrace trace;
  HardwarePass hw;
  if (opt.trace) {
    hw = time_hardware(sweep::build_grid(ref));
    trace.spans = &spans;
    trace.root = spans.reserve();
  }
  // Untraced searches are scaled by a BackgroundReference: the integer
  // loop after a 6-7 s search followed the thermal solve poorly (it slowed
  // 1.63x where the solve slowed 1.16x), a stencil sampled all through the
  // search does (spread 0.054 against 0.162 on wall clock, ten seeds).
  std::vector<SearchRun> runs;
  std::vector<double> walls, host_walls;
  {
    std::unique_ptr<BackgroundReference> host;
    if (!opt.trace) host = std::make_unique<BackgroundReference>();
    for (std::size_t i = 0; i < reps; ++i) {
      const std::int64_t t0 = now_ns();
      runs.push_back(search_once(ref, threads, trace));
      const std::int64_t t1 = now_ns();
      host_walls.push_back(runs.back().wall_s);
      walls.push_back(host ? host->scale(runs.back().wall_s, t0, t1)
                           : runs.back().wall_s);
      sample_setup();
    }
  }
  if (resolved == 0) r.fail("the dse grid resolved no cells");

  Digest digest;
  digest.str(runs.front().frontier);
  r.digest = digest.hex();
  std::uint64_t trials = 0, correct = 0, unconverged = 0, points = 0;
  for (const SearchRun& run : runs) {
    if (run.frontier != runs.front().frontier) {
      r.fail("repeated searches produced different frontiers");
    }
    check_search(run, r);
    for (const dse::DesignPoint& p : run.result.points) {
      trials += p.trials;
      correct += static_cast<std::uint64_t>(
          std::llround(p.accuracy * static_cast<double>(p.trials)));
      if (!p.hw.thermal_converged) ++unconverged;
      ++points;
    }
  }
  r.attempted = points;
  r.failed = unconverged;
  const double fail_frac =
      static_cast<double>(unconverged) / static_cast<double>(std::max<std::uint64_t>(1, points));
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(std::max<std::uint64_t>(1, trials));
  std::uint64_t search_trials = 0;
  for (const dse::RungReport& rung : runs.front().result.rungs) {
    search_trials += rung.entrants.size() * rung.budget_trials;
  }
  r.stamp["fail_frac"] = std::to_string(fail_frac);

  if (!opt.trace) {
    const std::vector<double> scaled = clock.scaled();
    std::vector<double> setup_s;
    for (std::size_t k : setup_marks) setup_s.push_back(scaled[k]);
    r.stamp["host_speed"] = std::to_string(clock.host_speed());
    r.stamp["search_s_host"] = std::to_string(median(host_walls));
    const double search_s = median(walls);
    const double designs = static_cast<double>(sweep::build_grid(ref).cell_count());
    r.set("setup_s", median(setup_s), "s");
    r.set("trials_per_s", static_cast<double>(search_trials) / search_s, "1/s");
    r.set("accuracy", accuracy, "ratio");
    r.set("p50_ms", percentile(walls, 0.50) * 1e3, "ms");
    r.set("p99_ms", percentile(walls, 0.99) * 1e3, "ms");
    r.set("max_qps", designs / search_s, "1/s");
    r.set("search_s", search_s, "s");
    return r;
  }

  // thermal.share: the search's own hardware time (the gaps between rungs,
  // measured inside the traced search, so CPU-speed drift between separate
  // passes cannot skew it) times the thermal part of the hardware work as
  // timed call by call, over the search wall.
  const double traced_wall = runs.back().wall_s;
  const auto solves = static_cast<double>(std::max<std::size_t>(1, hw.solves));
  if (hw.unconverged > 0) r.fail("a thermal solve did not converge");
  const double thermal_part = hw.thermal_s / (hw.thermal_s + hw.ppa_s);
  r.set("thermal.solve_ms", hw.thermal_s / solves * 1e3, "ms");
  r.set("thermal.share", trace.hardware_s * thermal_part / traced_wall, "ratio");
  r.set("thermal.sweeps", static_cast<double>(hw.sweeps), "count");
  r.set("ppa.eval_us", hw.ppa_s / solves * 1e6, "us");
  r.set("dse.trial_s", trace.cell_s, "s");
  r.set("dse.cell_runs", static_cast<double>(runs.back().result.cell_runs),
        "count");
  r.set("sweep.self_share",
        trace.rung_s > 0.0 ? (trace.rung_s - trace.cell_s) / trace.rung_s : 0.0,
        "ratio");
  r.set("trace.overhead",
        static_cast<double>(trace.bookkeeping_ns) * 1e-9 / traced_wall, "ratio");
  r.set("fail_frac", fail_frac, "ratio");
  if (!opt.out_dir.empty()) {
    spans.write_json(opt.out_dir + "/spans-" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".json");
  }
  return r;
}

}  // namespace perfbench
