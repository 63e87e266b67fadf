// Design-space exploration tests: Pareto frontier algebra (idempotence,
// dominance transitivity, permutation/duplicate/NaN handling), the joined
// accuracy × hardware evaluator, shard- and thread-count invariance, model
// error propagation and checkpoint resume of the successive-halving
// scheduler, frontier-artifact byte stability, and strict rejection of
// malformed design-axis parameters.

#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/evaluate.hpp"
#include "dse/frontier.hpp"
#include "dse/halving.hpp"
#include "dse/pareto.hpp"
#include "dse/space.hpp"
#include "sweep/registry.hpp"

namespace {

using namespace h3dfact;

const std::vector<dse::Objective>& two_min() {
  static const std::vector<dse::Objective> objectives = {
      {"cost", dse::Direction::kMinimize},
      {"heat", dse::Direction::kMinimize},
  };
  return objectives;
}

dse::MetricPoint mp(std::size_t id, std::vector<double> metrics) {
  return dse::MetricPoint{id, std::move(metrics)};
}

std::vector<std::size_t> ids(const std::vector<dse::MetricPoint>& points) {
  std::vector<std::size_t> out;
  for (const dse::MetricPoint& p : points) out.push_back(p.id);
  return out;
}

// --- Pareto properties ------------------------------------------------------

TEST(Pareto, DominanceRespectsDirections) {
  const std::vector<dse::Objective> mixed = {
      {"accuracy", dse::Direction::kMaximize},
      {"energy", dse::Direction::kMinimize},
  };
  EXPECT_TRUE(dse::dominates(mp(0, {0.9, 10}), mp(1, {0.8, 10}), mixed));
  EXPECT_TRUE(dse::dominates(mp(0, {0.9, 9}), mp(1, {0.9, 10}), mixed));
  EXPECT_FALSE(dse::dominates(mp(0, {0.9, 10}), mp(1, {0.9, 10}), mixed));
  EXPECT_FALSE(dse::dominates(mp(0, {0.9, 10}), mp(1, {0.8, 9}), mixed));
  EXPECT_THROW((void)dse::dominates(mp(0, {1.0}), mp(1, {1.0, 2.0}), mixed),
               std::invalid_argument);
}

TEST(Pareto, DominanceIsTransitiveOverRandomishGrid) {
  // Deterministic pseudo-grid (no RNG in tests either): every dominating
  // pair (a,b) and (b,c) must imply (a,c).
  std::vector<dse::MetricPoint> pts;
  for (std::size_t i = 0; i < 40; ++i) {
    const double x = static_cast<double>((i * 7) % 13);
    const double y = static_cast<double>((i * 5) % 11);
    pts.push_back(mp(i, {x, y}));
  }
  for (const auto& a : pts) {
    for (const auto& b : pts) {
      if (!dse::dominates(a, b, two_min())) continue;
      EXPECT_FALSE(dse::dominates(b, a, two_min())) << "antisymmetry";
      for (const auto& c : pts) {
        if (dse::dominates(b, c, two_min())) {
          EXPECT_TRUE(dse::dominates(a, c, two_min()))
              << a.id << " > " << b.id << " > " << c.id;
        }
      }
    }
  }
}

TEST(Pareto, FrontierIsIdempotentAndPermutationInvariant) {
  const std::vector<dse::MetricPoint> pts = {
      mp(3, {1, 9}), mp(0, {5, 5}), mp(7, {9, 1}), mp(5, {6, 6}),
      mp(2, {2, 8}), mp(9, {5, 5}),  // exact duplicate of id 0
  };
  const auto front = dse::pareto_front(pts, two_min());
  // id 5 is dominated by id 0; id 9 duplicates id 0 and the lowest id wins.
  EXPECT_EQ(ids(front), (std::vector<std::size_t>{0, 2, 3, 7}));

  // Idempotence: the frontier of a frontier is itself.
  EXPECT_EQ(ids(dse::pareto_front(front, two_min())), ids(front));

  // Permutation invariance: every rotation yields the identical frontier.
  std::vector<dse::MetricPoint> rotated = pts;
  for (std::size_t r = 0; r < pts.size(); ++r) {
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    EXPECT_EQ(ids(dse::pareto_front(rotated, two_min())), ids(front))
        << "rotation " << r;
  }
}

TEST(Pareto, NaNCarriersAreDroppedNotCompared) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto front = dse::pareto_front(
      {mp(0, {1, 1}), mp(1, {nan, 0}), mp(2, {0, nan})}, two_min());
  EXPECT_EQ(ids(front), (std::vector<std::size_t>{0}));
}

TEST(Pareto, LayersPeelAndPartition) {
  const auto layers = dse::nondominated_layers(
      {mp(0, {1, 9}), mp(1, {9, 1}), mp(2, {2, 10}), mp(3, {10, 2}),
       mp(4, {11, 11})},
      two_min());
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(ids(layers[0]), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ids(layers[1]), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(ids(layers[2]), (std::vector<std::size_t>{4}));
}

// --- design space + evaluator ----------------------------------------------

// The unit grid: 2 designs × 2 ADC precisions at a tiny dim (rows=64 × 2
// subarrays = 128) and trial budget, with the coarse 8×8 thermal grid.
sweep::GridRef unit_ref() {
  sweep::GridRef ref;
  ref.name = dse::kDesignGrid;
  ref.params["designs"] = "hybrid2d,h3d";
  ref.params["rows"] = "64";
  ref.params["subarrays"] = "2";
  ref.params["adc"] = "4,8";
  ref.params["m"] = "8";
  ref.params["trials"] = "6";
  ref.params["cap"] = "100";
  ref.params["thermal"] = "8";
  return ref;
}

TEST(DesignSpace, BuildsJoinedDesignPoints) {
  dse::register_design_spaces();
  const sweep::SweepSpec spec = sweep::build_grid(unit_ref());
  ASSERT_EQ(spec.cell_count(), 4u);
  EXPECT_EQ(spec.cell(0).config.dim, 128u);

  const auto results = sweep::run_sweep(spec, {});
  ASSERT_EQ(results.size(), 4u);
  for (const sweep::CellResult& r : results) {
    const dse::DesignPoint p = dse::join_design_point(r);
    EXPECT_EQ(p.index, r.index);
    EXPECT_EQ(p.trials, 6u);
    EXPECT_GT(p.hw.area_mm2, 0.0);
    EXPECT_GT(p.hw.energy_per_op_fJ, 0.0);
    EXPECT_GT(p.hw.peak_C, 20.0);  // above ambient
    EXPECT_TRUE(p.hw.thermal_converged);
    EXPECT_EQ(dse::to_metric_point(p).metrics.size(),
              dse::design_objectives().size());
  }
}

TEST(DesignSpace, StrictParseRejectsMalformedAxisParamsByName) {
  dse::register_design_spaces();
  const struct {
    const char* key;
    const char* value;
  } bad[] = {
      {"rows", "64, 128"},   // embedded space
      {"rows", "64,,128"},   // empty slot
      {"adc", "4.0"},        // not an integer
      {"adc", "1e1"},        // exponent form
      {"subarrays", ""},     // empty axis
      {"designs", "h4d"},    // unknown design kind
      {"rows", "4"},         // below the modelled range
      {"adc", "31"},         // above the modelled range
  };
  for (const auto& b : bad) {
    sweep::GridRef ref = unit_ref();
    ref.params[b.key] = b.value;
    try {
      (void)sweep::build_grid(ref);
      FAIL() << b.key << "=" << b.value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.key), std::string::npos)
          << e.what();
    }
  }
}

TEST(DesignSpace, EvaluatorRejectsUnknownDesignKind) {
  std::map<std::string, double> params;
  params[dse::kParamDesign] = 7;
  EXPECT_THROW((void)dse::design_from_params(params), std::invalid_argument);
}

// --- successive halving ------------------------------------------------------

TEST(Halving, RungBudgetsScaleAndEndAtFull) {
  EXPECT_EQ(dse::rung_budget(40, 2.0, 3, 0), 10u);
  EXPECT_EQ(dse::rung_budget(40, 2.0, 3, 1), 20u);
  EXPECT_EQ(dse::rung_budget(40, 2.0, 3, 2), 40u);
  EXPECT_EQ(dse::rung_budget(40, 2.0, 1, 0), 40u);
  EXPECT_EQ(dse::rung_budget(3, 4.0, 4, 0), 1u);  // floor at one trial
}

TEST(Halving, InvalidOptionsAreRejected) {
  dse::register_design_spaces();
  dse::SearchOptions opt;
  opt.rungs = 0;
  EXPECT_THROW((void)dse::run_search(unit_ref(), opt), std::invalid_argument);
  opt.rungs = 2;
  opt.eta = 1.0;
  EXPECT_THROW((void)dse::run_search(unit_ref(), opt), std::invalid_argument);
  opt.eta = 2.0;
  opt.sweep.cells = {0};
  EXPECT_THROW((void)dse::run_search(unit_ref(), opt), std::invalid_argument);
}

void expect_same_points(const std::vector<dse::DesignPoint>& a,
                        const std::vector<dse::DesignPoint>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << context;
    EXPECT_EQ(a[i].trials, b[i].trials) << context;
    EXPECT_EQ(a[i].accuracy, b[i].accuracy) << context;
    EXPECT_EQ(a[i].median_iterations, b[i].median_iterations) << context;
    const dse::HardwareMetrics& x = a[i].hw;
    const dse::HardwareMetrics& y = b[i].hw;
    EXPECT_EQ(x.area_mm2, y.area_mm2) << context;
    EXPECT_EQ(x.footprint_mm2, y.footprint_mm2) << context;
    EXPECT_EQ(x.energy_per_op_fJ, y.energy_per_op_fJ) << context;
    EXPECT_EQ(x.tops_per_watt, y.tops_per_watt) << context;
    EXPECT_EQ(x.tops, y.tops) << context;
    EXPECT_EQ(x.frequency_MHz, y.frequency_MHz) << context;
    EXPECT_EQ(x.power_mW, y.power_mW) << context;
    EXPECT_EQ(x.peak_C, y.peak_C) << context;
    EXPECT_EQ(x.thermal_converged, y.thermal_converged) << context;
  }
}

// Promotion and the final frontier are functions of the spec alone: every
// shard count walks the identical rung sequence. (Exact equality, not
// approximate — the merge algebra is partition-invariant.)
TEST(Halving, ShardCountInvariance) {
  dse::register_design_spaces();
  dse::SearchOptions base;
  base.rungs = 2;
  base.eta = 1.5;

  dse::SearchOptions one = base, two = base, four = base;
  two.sweep.shards = 2;
  four.sweep.shards = 4;
  const dse::SearchResult r1 = dse::run_search(unit_ref(), one);
  const dse::SearchResult r2 = dse::run_search(unit_ref(), two);
  const dse::SearchResult r4 = dse::run_search(unit_ref(), four);

  ASSERT_EQ(r1.rungs.size(), 2u);
  for (std::size_t k = 0; k < r1.rungs.size(); ++k) {
    EXPECT_EQ(r1.rungs[k].promoted, r2.rungs[k].promoted) << "rung " << k;
    EXPECT_EQ(r1.rungs[k].promoted, r4.rungs[k].promoted) << "rung " << k;
    EXPECT_EQ(r1.rungs[k].budget_trials, r2.rungs[k].budget_trials);
  }
  expect_same_points(r1.frontier, r2.frontier, "1 vs 2 shards");
  expect_same_points(r1.frontier, r4.frontier, "1 vs 4 shards");

  // The artifact byte-level view of the same statement.
  EXPECT_EQ(dse::frontier_json_string("dse", unit_ref(), r1.frontier),
            dse::frontier_json_string("dse", unit_ref(), r4.frontier));
}

// The hardware pass after each rung runs on max(1, shards, threads_per_cell)
// threads; each cell's metrics land in the cell's own slot, so promotion,
// points and frontier bytes are the same at every thread count.
TEST(Halving, HardwarePassIsThreadCountInvariant) {
  dse::register_design_spaces();
  dse::SearchOptions base;
  base.rungs = 2;
  base.eta = 1.5;
  base.sweep.threads_per_cell = 1;
  const dse::SearchResult serial = dse::run_search(unit_ref(), base);
  const std::string serial_bytes =
      dse::frontier_json_string("dse", unit_ref(), serial.frontier);

  std::vector<std::pair<std::string, dse::SearchOptions>> variants;
  for (unsigned threads : {2u, 3u, 8u}) {
    dse::SearchOptions opt = base;
    opt.sweep.threads_per_cell = threads;
    variants.emplace_back(std::to_string(threads) + " threads per cell", opt);
  }
  dse::SearchOptions sharded = base;
  sharded.sweep.threads_per_cell = 0;
  sharded.sweep.shards = 4;
  variants.emplace_back("4 shards", sharded);

  for (const auto& [context, opt] : variants) {
    const dse::SearchResult r = dse::run_search(unit_ref(), opt);
    ASSERT_EQ(r.rungs.size(), serial.rungs.size()) << context;
    for (std::size_t k = 0; k < r.rungs.size(); ++k) {
      EXPECT_EQ(r.rungs[k].promoted, serial.rungs[k].promoted) << context;
    }
    expect_same_points(r.points, serial.points, context);
    expect_same_points(r.frontier, serial.frontier, context);
    EXPECT_EQ(dse::frontier_json_string("dse", unit_ref(), r.frontier),
              serial_bytes)
        << context;
  }
}

// A model error inside the hardware pass (here an unknown design kind that
// the trials never read) surfaces from run_search as the evaluator's own
// exception at any thread count, not as std::terminate in a worker.
TEST(Halving, HardwarePassRethrowsModelErrors) {
  dse::register_design_spaces();
  sweep::register_grid("dse_bad_design", [](const sweep::GridParams& p) {
    sweep::SweepSpec spec = dse::build_design_space(p);
    spec.finalize = [inner = spec.finalize](sweep::Cell& c) {
      inner(c);
      if (c.index == 1) c.params[dse::kParamDesign] = 7;
    };
    return spec;
  });
  sweep::GridRef ref = unit_ref();
  ref.name = "dse_bad_design";
  for (unsigned threads : {1u, 4u}) {
    dse::SearchOptions opt;
    opt.sweep.threads_per_cell = threads;
    try {
      (void)dse::run_search(ref, opt);
      FAIL() << "design 7 was accepted at " << threads << " threads";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'design' = 7"), std::string::npos)
          << e.what();
    }
  }
}

// An exhaustive sweep (rungs=1) and a halving search whose promotion kept
// the whole exhaustive frontier emit byte-identical artifacts — the
// trial-prefix property end to end (and the CI dse-smoke contract).
TEST(Halving, FrontierMatchesExhaustiveByteForByte) {
  dse::register_design_spaces();
  dse::SearchOptions exhaustive;
  exhaustive.rungs = 1;
  dse::SearchOptions halved;
  halved.rungs = 2;
  halved.eta = 1.5;  // ceil(4/1.5) = 3 survivors
  const dse::SearchResult full = dse::run_search(unit_ref(), exhaustive);
  const dse::SearchResult search = dse::run_search(unit_ref(), halved);
  EXPECT_EQ(full.cell_runs, 4u);
  EXPECT_EQ(search.cell_runs, 4u + 3u);
  EXPECT_EQ(dse::frontier_json_string("dse", unit_ref(), full.frontier),
            dse::frontier_json_string("dse", unit_ref(), search.frontier));
}

TEST(Halving, CheckpointResumeIsBitIdentical) {
  dse::register_design_spaces();
  const std::string base = ::testing::TempDir() + "/dse_halving_ck";
  for (int k = 0; k < 4; ++k) {
    std::remove((base + ".rung" + std::to_string(k)).c_str());
  }

  dse::SearchOptions opt;
  opt.rungs = 2;
  opt.eta = 1.5;
  opt.checkpoint_base = base;
  const dse::SearchResult first = dse::run_search(unit_ref(), opt);

  // Simulate dying after rung 0: drop the final rung's checkpoint and run
  // again. Rung 0 resumes entirely from its file, the final rung re-runs,
  // and the frontier is byte-identical.
  std::remove((base + ".rung1").c_str());
  const dse::SearchResult resumed = dse::run_search(unit_ref(), opt);
  for (std::size_t k = 0; k < first.rungs.size(); ++k) {
    EXPECT_EQ(first.rungs[k].promoted, resumed.rungs[k].promoted);
  }
  EXPECT_EQ(dse::frontier_json_string("dse", unit_ref(), first.frontier),
            dse::frontier_json_string("dse", unit_ref(), resumed.frontier));

  // A rung checkpoint never masquerades as another rung's: the budgets
  // differ, so reusing rung 0's file for the full-budget rung is refused.
  dse::SearchOptions cross = opt;
  cross.rungs = 1;  // final rung at full budget would read ".rung0"
  // rungs=1 checkpoints to ".rung0" as well, but with trials=6 vs rung 0's
  // reduced budget — the sweep layer's config match rejects it.
  EXPECT_THROW((void)dse::run_search(unit_ref(), cross), std::runtime_error);

  for (int k = 0; k < 4; ++k) {
    std::remove((base + ".rung" + std::to_string(k)).c_str());
  }
}

}  // namespace
