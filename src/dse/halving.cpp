#include "dse/halving.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dse/pareto.hpp"
#include "util/sync.hpp"

namespace h3dfact::dse {

namespace {

using HardwareSlots = std::vector<std::optional<HardwareMetrics>>;

// Hardware metrics depend only on the design axes, never on the trial
// budget, so each cell's models (including the thermal solve) run once per
// search, not once per rung. After a rung's sweep, the entrants with no
// metrics yet are evaluated in one pass: workers claim cells from an atomic
// counter and each result lands in its cell's own slot, so the metrics do
// not depend on the thread count. The first model error is rethrown.
void evaluate_new_cells(HardwareSlots& hw,
                        const std::vector<sweep::CellResult>& cells,
                        const sweep::SweepOptions& sweep) {
  std::vector<const sweep::CellResult*> todo;
  for (const sweep::CellResult& c : cells) {
    if (!hw[c.index]) todo.push_back(&c);
  }
  // The thread rule of SearchOptions::sweep; threads_per_cell = 0 reads as
  // the hardware concurrency, as the trial runner reads it.
  const unsigned per_cell = sweep.threads_per_cell != 0
                                ? sweep.threads_per_cell
                                : std::thread::hardware_concurrency();
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max({1u, sweep.shards, per_cell}), todo.size()));
  std::atomic<std::size_t> next{0};
  util::run_workers(threads, [&]() {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= todo.size()) break;
        hw[todo[i]->index] = evaluate_hardware(todo[i]->params);
      }
    } catch (...) {
      next.store(todo.size());  // drain the queue so peers stop early
      throw;
    }
  });
}

std::vector<DesignPoint> join_all(const HardwareSlots& hw,
                                  const std::vector<sweep::CellResult>& cells) {
  std::vector<DesignPoint> points;
  points.reserve(cells.size());
  for (const sweep::CellResult& c : cells) {
    points.push_back(join_design_point(c, *hw[c.index]));
  }
  return points;
}

// Promotion score within a non-dominated layer, higher is better:
// 100·accuracy − 0.01·fJ/op − 10·mm² − 0.1·°C.
double score(const DesignPoint& p) {
  constexpr double kAccuracy = 100.0;
  constexpr double kEnergy = 0.01;
  constexpr double kArea = 10.0;
  constexpr double kTemp = 0.1;
  return kAccuracy * p.accuracy - kEnergy * p.hw.energy_per_op_fJ -
         kArea * p.hw.area_mm2 - kTemp * p.hw.peak_C;
}

// Promote the top `count` entrants: non-dominated layer first, then the
// score, then cell index — a deterministic total order.
std::vector<std::size_t> promote(const std::vector<DesignPoint>& points,
                                 std::size_t count) {
  std::map<std::size_t, const DesignPoint*> by_id;
  std::vector<MetricPoint> metric_points;
  metric_points.reserve(points.size());
  for (const DesignPoint& p : points) {
    by_id[p.index] = &p;
    metric_points.push_back(to_metric_point(p));
  }
  const auto layers =
      nondominated_layers(std::move(metric_points), design_objectives());

  struct Ranked {
    std::size_t layer;
    double score;
    std::size_t id;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(points.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (const MetricPoint& mp : layers[l]) {
      ranked.push_back({l, score(*by_id.at(mp.id)), mp.id});
    }
  }
  // Duplicate-metric cells are collapsed out of the layers (pareto.hpp's
  // tie rule); they rank behind every layered cell, by index.
  std::vector<std::size_t> layered_ids;
  for (const Ranked& r : ranked) layered_ids.push_back(r.id);
  std::sort(layered_ids.begin(), layered_ids.end());
  for (const DesignPoint& p : points) {
    if (!std::binary_search(layered_ids.begin(), layered_ids.end(), p.index)) {
      ranked.push_back({layers.size(), score(p), p.index});
    }
  }

  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.layer != b.layer) return a.layer < b.layer;
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  std::vector<std::size_t> promoted;
  for (std::size_t i = 0; i < ranked.size() && i < count; ++i) {
    promoted.push_back(ranked[i].id);
  }
  std::sort(promoted.begin(), promoted.end());
  return promoted;
}

}  // namespace

std::size_t rung_budget(std::size_t full_trials, double eta, std::size_t rungs,
                        std::size_t rung) {
  if (rung + 1 >= rungs) return full_trials;
  const double scale =
      std::pow(eta, -static_cast<double>(rungs - 1 - rung));
  const auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(full_trials) * scale));
  return std::min(full_trials, std::max<std::size_t>(1, scaled));
}

SearchResult run_search(const sweep::GridRef& ref,
                        const SearchOptions& options) {
  if (options.rungs == 0) {
    throw std::invalid_argument("dse search: rungs must be >= 1");
  }
  if (options.rungs > 1 && !(options.eta > 1.0)) {
    throw std::invalid_argument("dse search: eta must exceed 1");
  }
  if (!options.sweep.cells.empty() || !options.sweep.checkpoint_path.empty() ||
      options.sweep.grid.valid()) {
    throw std::invalid_argument(
        "dse search: SearchOptions::sweep must leave cells/checkpoint/grid "
        "empty — the scheduler manages them per rung");
  }

  const sweep::SweepSpec full_spec = sweep::build_grid(ref);
  const std::size_t total = full_spec.cell_count();
  const std::size_t full_trials = full_spec.base.trials;
  for (std::size_t i = 0; i < total; ++i) {
    if (full_spec.cell(i).config.trials != full_trials) {
      throw std::invalid_argument(
          "dse search: grid '" + ref.name +
          "' varies trials across cells; halving budgets require a uniform "
          "trial budget");
    }
  }

  SearchResult out;
  HardwareSlots hw(total);
  std::vector<std::size_t> survivors(total);
  for (std::size_t i = 0; i < total; ++i) survivors[i] = i;

  std::vector<DesignPoint> final_points;
  for (std::size_t k = 0; k < options.rungs && !survivors.empty(); ++k) {
    const std::size_t budget =
        rung_budget(full_trials, options.eta, options.rungs, k);
    sweep::GridRef rung_ref = ref;
    rung_ref.params["trials"] = std::to_string(budget);
    const sweep::SweepSpec rung_spec = sweep::build_grid(rung_ref);

    sweep::SweepOptions rung_opts = options.sweep;
    rung_opts.cells = survivors;
    if (rung_opts.transport) rung_opts.grid = rung_ref;
    if (!options.checkpoint_base.empty()) {
      rung_opts.checkpoint_path =
          options.checkpoint_base + ".rung" + std::to_string(k);
    }
    const std::vector<sweep::CellResult> cells =
        sweep::run_sweep(rung_spec, rung_opts);
    out.cell_runs += cells.size();
    evaluate_new_cells(hw, cells, rung_opts);
    const std::vector<DesignPoint> points = join_all(hw, cells);

    RungReport report;
    report.rung = k;
    report.budget_trials = budget;
    report.entrants = survivors;
    if (k + 1 < options.rungs) {
      const auto keep = static_cast<std::size_t>(std::ceil(
          static_cast<double>(survivors.size()) / options.eta));
      report.promoted = promote(points, std::max<std::size_t>(1, keep));
      survivors = report.promoted;
    } else {
      final_points = points;
    }
    out.rungs.push_back(std::move(report));
  }

  out.points = std::move(final_points);
  std::vector<MetricPoint> metric_points;
  metric_points.reserve(out.points.size());
  for (const DesignPoint& p : out.points) {
    metric_points.push_back(to_metric_point(p));
  }
  const std::vector<MetricPoint> front =
      pareto_front(std::move(metric_points), design_objectives());
  for (const MetricPoint& mp : front) {
    for (const DesignPoint& p : out.points) {
      if (p.index == mp.id) {
        out.frontier.push_back(p);
        break;
      }
    }
  }
  return out;
}

}  // namespace h3dfact::dse
