// Tests for the thermal solver: conservation/physics sanity on analytic
// configurations, agreement with a direct (banded Cholesky) solve, the stop
// rules, stack construction, energy balance, convergence at 48x48, and the
// Fig. 5 operating points.

#include <algorithm>
#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ppa/floorplan.hpp"
#include "thermal/grid.hpp"
#include "thermal/stack.hpp"

namespace {

using namespace h3dfact;
using namespace h3dfact::thermal;

GridConfig tiny_config() {
  GridConfig cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.width_mm = 1.0;
  cfg.height_mm = 1.0;
  cfg.h_top_W_m2K = 1000.0;
  cfg.h_bottom_W_m2K = 0.0;  // adiabatic bottom for analytic checks
  cfg.ambient_C = 25.0;
  return cfg;
}

/// Direct solve of the conductance network the solver describes, as the
/// reference its CG iterate must reach: A θ = power for θ = T − ambient,
/// with (A θ)_c = Σ g over c's faces · θ_c − Σ g · θ_neighbour, the cells in
/// (l, iy, ix) order. A cell's farthest neighbour is one layer away, nx·ny
/// cells on, so banded Cholesky with that bandwidth factors A exactly.
/// Returns T per layer (row-major, like LayerTemps::cells_C).
std::vector<std::vector<double>> direct_solve(const GridConfig& cfg,
                                              const std::vector<Layer>& layers) {
  const std::size_t nx = cfg.nx, ny = cfg.ny, nc = nx * ny, nl = layers.size();
  const std::size_t n = nc * nl, band = nc;
  const double dx = cfg.width_mm * 1e-3 / static_cast<double>(nx);
  const double dy = cfg.height_mm * 1e-3 / static_cast<double>(ny);
  // L(i, j) for i - band <= j <= i lives at low[i * (band + 1) + i - j].
  std::vector<double> low(n * (band + 1), 0.0), rhs(n, 0.0);
  auto L = [&](std::size_t i, std::size_t j) -> double& {
    return low[i * (band + 1) + i - j];
  };
  auto link = [&](std::size_t a, std::size_t b, double g) {  // a > b
    L(a, a) += g;
    L(b, b) += g;
    L(a, b) -= g;
  };
  auto half = [&](std::size_t l) {  // centre-to-face vertical conductance
    const double t = layers[l].thickness_um * 1e-6;
    return layers[l].k_W_mK * dx * dy / (t / 2);
  };
  for (std::size_t l = 0; l < nl; ++l) {
    const double t = layers[l].thickness_um * 1e-6, k = layers[l].k_W_mK;
    for (std::size_t c = 0; c < nc; ++c) {
      const std::size_t i = l * nc + c;
      if (c % nx > 0) link(i, i - 1, k * dy * t / dx);
      if (c >= nx) link(i, i - nx, k * dx * t / dy);
      if (l > 0) link(i, i - nc, 1.0 / (1.0 / half(l) + 1.0 / half(l - 1)));
      if (l == 0) L(i, i) += cfg.h_top_W_m2K * dx * dy;
      if (l + 1 == nl) L(i, i) += cfg.h_bottom_W_m2K * dx * dy;
      if (!layers[l].power_W.empty()) rhs[i] = layers[l].power_W[c];
    }
  }
  const auto first = [&](std::size_t i) { return i > band ? i - band : 0; };
  for (std::size_t i = 0; i < n; ++i) {  // A = L Lᵀ in place
    for (std::size_t j = first(i); j <= i; ++j) {
      double s = L(i, j);
      for (std::size_t k = first(i); k < j; ++k) s -= L(i, k) * L(j, k);
      L(i, j) = i == j ? std::sqrt(s) : s / L(j, j);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {  // L y = rhs
    for (std::size_t k = first(i); k < i; ++k) rhs[i] -= L(i, k) * rhs[k];
    rhs[i] /= L(i, i);
  }
  for (std::size_t i = n; i-- > 0;) {  // Lᵀ θ = y
    for (std::size_t k = i + 1; k < std::min(n, i + band + 1); ++k) {
      rhs[i] -= L(k, i) * rhs[k];
    }
    rhs[i] /= L(i, i);
  }
  std::vector<std::vector<double>> T(nl, std::vector<double>(nc));
  for (std::size_t i = 0; i < n; ++i) T[i / nc][i % nc] = cfg.ambient_C + rhs[i];
  return T;
}

/// Deterministic, uneven per-cell power (W): no two neighbours alike.
std::vector<double> uneven_power(std::size_t n, double scale) {
  std::vector<double> p(n);
  for (std::size_t c = 0; c < n; ++c) {
    p[c] = scale * static_cast<double>(1 + (c * 7 + c / 3) % 11);
  }
  return p;
}

/// A solved build_stack() stack together with its grid (for the config and
/// the injected power).
struct SolvedStack {
  ThermalGrid grid;
  ThermalSolution sol;
};

SolvedStack solve_stack(arch::DesignKind kind, const StackParams& params = {}) {
  ThermalGrid grid = build_stack(ppa::build_floorplan(arch::make_design(kind)), params);
  ThermalSolution sol = grid.solve();
  return {std::move(grid), std::move(sol)};
}

// Each distinct stack is solved once per process; the Stack tests share them.
const SolvedStack& h3d() {
  static const SolvedStack s = solve_stack(arch::DesignKind::kH3dThreeTier);
  return s;
}

const SolvedStack& hybrid2d() {
  static const SolvedStack s = solve_stack(arch::DesignKind::kHybrid2D);
  return s;
}

const SolvedStack& h3d_strong_htc() {
  static const SolvedStack s = [] {
    StackParams strong;
    strong.h_top_W_m2K = 4000.0;
    return solve_stack(arch::DesignKind::kH3dThreeTier, strong);
  }();
  return s;
}

TEST(ThermalGrid, NoPowerMeansAmbient) {
  // Zero power meets the tolerance before the first iteration and returns
  // exact ambient.
  std::vector<Layer> layers{{"die", 100.0, 120.0, {}}};
  ThermalGrid grid(tiny_config(), layers);
  auto sol = grid.solve();
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.sweeps, 0u);
  EXPECT_EQ(sol.residual_C, 0.0);
  for (double t : sol.layers[0].cells_C) EXPECT_EQ(t, 25.0);
}

TEST(ThermalGrid, UniformPowerMatchesAnalyticConvection) {
  // With uniform power P over area A and only a convective top boundary,
  // steady state sits at T = T_amb + P / (h A).
  auto cfg = tiny_config();
  const double P = 0.05;  // W
  std::vector<double> power(cfg.nx * cfg.ny, P / 64.0);
  std::vector<Layer> layers{{"die", 100.0, 120.0, power}};
  ThermalGrid grid(cfg, layers);
  auto sol = grid.solve();
  const double area_m2 = 1e-3 * 1e-3;
  const double expect = 25.0 + P / (cfg.h_top_W_m2K * area_m2);
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.layers[0].mean_C, expect, expect * 0.01);
}

TEST(ThermalGrid, SeriesLayersAddResistance) {
  auto cfg = tiny_config();
  const double P = 0.02;
  std::vector<double> power(cfg.nx * cfg.ny, P / 64.0);
  // Power injected below an insulating layer: the die runs hotter than with
  // a conductive one.
  std::vector<Layer> good{{"tim", 100.0, 40.0, {}}, {"die", 100.0, 120.0, power}};
  std::vector<Layer> bad{{"tim", 100.0, 0.05, {}}, {"die", 100.0, 120.0, power}};
  auto sol_good = ThermalGrid(cfg, good).solve();
  auto sol_bad = ThermalGrid(cfg, bad).solve();
  EXPECT_GT(sol_bad.layer("die").mean_C, sol_good.layer("die").mean_C + 0.5);
}

TEST(ThermalGrid, HotspotSpreadsMonotonically) {
  auto cfg = tiny_config();
  std::vector<double> power(cfg.nx * cfg.ny, 0.0);
  power[3 * cfg.nx + 3] = 0.02;  // point source
  std::vector<Layer> layers{{"die", 200.0, 120.0, power}};
  auto sol = ThermalGrid(cfg, layers).solve();
  const auto& T = sol.layers[0].cells_C;
  // Temperature decays away from the source.
  EXPECT_GT(T[3 * cfg.nx + 3], T[3 * cfg.nx + 6]);
  EXPECT_GT(T[3 * cfg.nx + 3], T[7 * cfg.nx + 3]);
  // Everything is above ambient.
  for (double t : T) EXPECT_GT(t, 25.0 - 1e-9);
}

TEST(ThermalGrid, DeeperLayerHotterThanSurface) {
  // Heat escapes through the top: a powered bottom layer sits hotter than
  // the unpowered top layer.
  auto cfg = tiny_config();
  std::vector<double> power(cfg.nx * cfg.ny, 0.0003);
  std::vector<Layer> layers{{"top", 100.0, 120.0, {}},
                            {"mid", 100.0, 120.0, {}},
                            {"bottom", 100.0, 120.0, power}};
  auto sol = ThermalGrid(cfg, layers).solve();
  EXPECT_GT(sol.layer("bottom").mean_C, sol.layer("top").mean_C);
  EXPECT_GT(sol.layer("mid").mean_C, sol.layer("top").mean_C);
  EXPECT_DOUBLE_EQ(sol.hottest_C(), sol.layer("bottom").max_C);
}

TEST(ThermalGrid, ValidatesInputs) {
  auto cfg = tiny_config();
  EXPECT_THROW(ThermalGrid(cfg, {}), std::invalid_argument);
  std::vector<Layer> bad_thickness{{"die", -1.0, 100.0, {}}};
  EXPECT_THROW(ThermalGrid(cfg, bad_thickness), std::invalid_argument);
  std::vector<Layer> bad_power{{"die", 100.0, 100.0, std::vector<double>(3, 0.0)}};
  EXPECT_THROW(ThermalGrid(cfg, bad_power), std::invalid_argument);
  GridConfig empty = cfg;
  empty.nx = 0;
  EXPECT_THROW(ThermalGrid(empty, {{"die", 100.0, 100.0, {}}}),
               std::invalid_argument);

  // Configs the solver cannot solve are rejected, naming the field.
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(GridConfig&)>>> bad = {
      {"max_sweeps", [](GridConfig& c) { c.max_sweeps = 0; }},
      {"tolerance_C", [](GridConfig& c) { c.tolerance_C = 0.0; }},
      {"tolerance_C", [](GridConfig& c) { c.tolerance_C = -1e-6; }},
      {"tolerance_C", [](GridConfig& c) { c.tolerance_C = inf; }},
      {"tolerance_C", [](GridConfig& c) { c.tolerance_C = nan; }},
      {"h_top_W_m2K", [](GridConfig& c) { c.h_top_W_m2K = -1.0; }},
      {"h_bottom_W_m2K", [](GridConfig& c) { c.h_bottom_W_m2K = -1.0; }},
      {"width_mm", [](GridConfig& c) { c.width_mm = 0.0; }},
      {"width_mm", [](GridConfig& c) { c.width_mm = -1.0; }},
      {"height_mm", [](GridConfig& c) { c.height_mm = 0.0; }},
      {"height_mm", [](GridConfig& c) { c.height_mm = nan; }},
  };
  for (const auto& [field, mutate] : bad) {
    GridConfig c = cfg;
    mutate(c);
    try {
      ThermalGrid grid(c, {{"die", 100.0, 100.0, {}}});
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
  // The edges of the valid ranges stay accepted.
  GridConfig edge = cfg;
  edge.h_top_W_m2K = 0.0;
  edge.h_bottom_W_m2K = 0.0;
  edge.max_sweeps = 1;
  EXPECT_NO_THROW(ThermalGrid(edge, {{"die", 100.0, 100.0, {}}}));
}

TEST(ThermalGrid, SweepCountStopsAtTheCap) {
  auto cfg = tiny_config();
  std::vector<double> power(cfg.nx * cfg.ny, 0.05 / 64.0);
  const std::vector<Layer> layers{{"die", 100.0, 120.0, power}};

  cfg.max_sweeps = 5;
  const auto capped = ThermalGrid(cfg, layers).solve();
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.sweeps, 5u);
  EXPECT_GE(capped.residual_C, cfg.tolerance_C);

  // A converged run counts the CG iterations it took; capping it there
  // gives the same run, one iteration short of it stops unconverged.
  cfg.max_sweeps = GridConfig{}.max_sweeps;
  const auto free_run = ThermalGrid(cfg, layers).solve();
  ASSERT_TRUE(free_run.converged);
  ASSERT_GT(free_run.sweeps, 1u);
  cfg.max_sweeps = free_run.sweeps;
  const auto exact = ThermalGrid(cfg, layers).solve();
  EXPECT_TRUE(exact.converged);
  EXPECT_EQ(exact.sweeps, free_run.sweeps);
  cfg.max_sweeps = free_run.sweeps - 1;
  const auto short_run = ThermalGrid(cfg, layers).solve();
  EXPECT_FALSE(short_run.converged);
  EXPECT_EQ(short_run.sweeps, free_run.sweeps - 1);
}

// A lone cell with no path to ambient divides by a zero conductance sum:
// 0/0 without power, p/0 = inf and then inf − inf with it. The constructor
// accepts the config, and the NaN must reach the stop value, so the solve
// ends unconverged instead of reporting a converged NaN field.
TEST(ThermalGrid, NanFieldNeverReportsConverged) {
  GridConfig cfg;
  cfg.nx = 1;
  cfg.ny = 1;
  cfg.h_top_W_m2K = 0.0;
  cfg.h_bottom_W_m2K = 0.0;
  for (const auto& power : {std::vector<double>{}, std::vector<double>{1e-3}}) {
    SCOPED_TRACE(power.empty() ? "unpowered" : "powered");
    const ThermalSolution sol =
        ThermalGrid(cfg, {{"die", 100.0, 120.0, power}}).solve();
    EXPECT_FALSE(sol.converged);
    EXPECT_TRUE(std::isnan(sol.residual_C)) << sol.residual_C;
    EXPECT_TRUE(std::isnan(sol.hottest_C())) << sol.hottest_C();
  }
}

// Without a convective face the network is singular: power has nowhere to
// go and no temperature field balances it. The solve must run to the cap
// and never report converged, whatever the iterate does on the way.
TEST(ThermalGrid, NoPathToAmbientNeverConverges) {
  GridConfig cfg;
  cfg.nx = 5;
  cfg.ny = 4;
  cfg.h_top_W_m2K = 0.0;
  cfg.h_bottom_W_m2K = 0.0;
  const std::vector<Layer> layers{{"tim", 20.0, 4.0, {}},
                                  {"die", 100.0, 120.0, uneven_power(20, 1e-4)}};
  const ThermalSolution sol = ThermalGrid(cfg, layers).solve();
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.sweeps, cfg.max_sweeps);
  EXPECT_FALSE(sol.residual_C < cfg.tolerance_C) << sol.residual_C;
}

// The converged iterate agrees with a direct solve of the same network in
// every cell, on 1-D lines, thin stacks, an adiabatic bottom and the Fig. 5
// layer stack.
TEST(ThermalGrid, SolveMatchesDirectSolve) {
  struct Case {
    std::string name;
    GridConfig cfg;
    std::vector<Layer> layers;
  };
  auto grid = [](std::size_t nx, std::size_t ny) {
    GridConfig cfg;
    cfg.nx = nx;
    cfg.ny = ny;
    cfg.width_mm = 0.3 * static_cast<double>(nx);
    cfg.height_mm = 0.3 * static_cast<double>(ny);
    return cfg;
  };
  std::vector<Case> cases;
  cases.push_back({"1x1x1", grid(1, 1), {{"die", 100.0, 120.0, {2e-3}}}});
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{1, 7}, {7, 1}}) {
    cases.push_back({std::to_string(nx) + "x" + std::to_string(ny) + "x3", grid(nx, ny),
                     {{"tim", 20.0, 4.0, {}},
                      {"die", 100.0, 120.0, uneven_power(7, 1e-4)},
                      {"pcb", 500.0, 5.0, {}}}});
  }
  for (const double h_bottom : {20.0, 0.0}) {
    auto cfg = grid(7, 5);
    cfg.h_bottom_W_m2K = h_bottom;
    cases.push_back({h_bottom > 0.0 ? "7x5x4 h_bottom>0" : "7x5x4 h_bottom=0", cfg,
                     {{"tim", 20.0, 4.0, {}},
                      {"die-a", 100.0, 120.0, uneven_power(35, 2e-5)},
                      {"bond", 3.0, 2.5, {}},
                      {"die-b", 100.0, 120.0, uneven_power(35, 3e-5)}}});
  }
  // build_stack()'s ten layers on a 12x9 grid, uneven power on the dies.
  const StackParams p;
  const auto stack_cfg = grid(12, 9);
  const std::vector<Layer> stack{
      {"tim2", p.tim2_thickness_um, p.k_tim, {}},
      {"tim1", p.tim1_thickness_um, p.k_tim, {}},
      {"die-tier3", p.die_thickness_um, p.k_si, uneven_power(108, 2e-4)},
      {"bond-f2f", p.bond_thickness_um, p.k_bond, {}},
      {"die-tier2", p.die_thickness_um, p.k_si, uneven_power(108, 1e-4)},
      {"tsv-f2b", p.tsv_layer_um, p.k_bond, {}},
      {"die-tier1", p.die_thickness_um, p.k_si, uneven_power(108, 3e-4)},
      {"bumps", p.bump_thickness_um, p.k_bump, {}},
      {"package", p.package_thickness_mm * 1000.0, p.k_package, {}},
      {"pcb", p.pcb_thickness_mm * 1000.0, p.k_pcb, {}}};
  cases.push_back({"12x9 stack", stack_cfg, stack});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ThermalSolution sol = ThermalGrid(c.cfg, c.layers).solve();
    EXPECT_TRUE(sol.converged) << sol.residual_C;
    const auto ref = direct_solve(c.cfg, c.layers);
    ASSERT_EQ(sol.layers.size(), ref.size());
    for (std::size_t l = 0; l < ref.size(); ++l) {
      ASSERT_EQ(sol.layers[l].cells_C.size(), ref[l].size());
      for (std::size_t i = 0; i < ref[l].size(); ++i) {
        EXPECT_NEAR(sol.layers[l].cells_C[i], ref[l][i], 1e-8)
            << "layer " << sol.layers[l].name << " cell " << i;
      }
    }
  }
}

TEST(Stack, BuildsExpectedLayerOrder) {
  const auto& sol = h3d().sol;
  // TIMs on top, then tier-3/bond/tier-2/tsv/tier-1, bumps, package, pcb.
  ASSERT_EQ(sol.layers.size(), 10u);
  EXPECT_EQ(sol.layers[0].name, "tim2");
  EXPECT_EQ(sol.layers[2].name, "die-tier3");
  EXPECT_EQ(sol.layers[3].name, "bond-f2f");
  EXPECT_EQ(sol.layers[4].name, "die-tier2");
  EXPECT_EQ(sol.layers[5].name, "tsv-f2b");
  EXPECT_EQ(sol.layers[6].name, "die-tier1");
  EXPECT_EQ(sol.layers.back().name, "pcb");
}

TEST(Stack, PowerConservedIntoSolver) {
  auto d = arch::make_design(arch::DesignKind::kH3dThreeTier);
  auto fp = ppa::build_floorplan(d);
  auto grid = build_stack(fp);
  double fp_power = 0.0;
  for (const auto& t : fp) fp_power += t.total_power_W();
  EXPECT_NEAR(grid.total_power_W(), fp_power, fp_power * 0.02);
}

TEST(Stack, HeatLeavesThroughTheFaces) {
  // Steady state: the heat convected away through the top and bottom faces
  // equals the injected power. The true-residual stop leaves under 1e-12
  // relative at the Fig. 5 defaults.
  for (const SolvedStack* s : {&h3d(), &hybrid2d(), &h3d_strong_htc()}) {
    const GridConfig& cfg = s->grid.config();
    const double cell_m2 = cfg.width_mm * 1e-3 / static_cast<double>(cfg.nx) *
                           (cfg.height_mm * 1e-3 / static_cast<double>(cfg.ny));
    double out_W = 0.0;
    for (double t : s->sol.layers.front().cells_C) {
      out_W += cfg.h_top_W_m2K * cell_m2 * (t - cfg.ambient_C);
    }
    for (double t : s->sol.layers.back().cells_C) {
      out_W += cfg.h_bottom_W_m2K * cell_m2 * (t - cfg.ambient_C);
    }
    const double in_W = s->grid.total_power_W();
    EXPECT_NEAR(out_W, in_W, 1e-9 * in_W) << "h_top " << cfg.h_top_W_m2K;
  }
}

TEST(Stack, Fig5OperatingPointH3d) {
  const auto& sol = h3d().sol;
  ASSERT_TRUE(sol.converged);
  auto dies = die_temps(sol);
  ASSERT_EQ(dies.size(), 3u);
  // Paper: tiers range 46.8–47.8 C at 25 C ambient.
  for (const auto& die : dies) {
    EXPECT_GT(die.mean_C, 43.0) << die.name;
    EXPECT_LT(die.mean_C, 52.0) << die.name;
  }
  // RRAM retention is safe (< 100 C, Sec. V-C).
  EXPECT_LT(sol.hottest_C(), 100.0);
}

TEST(Stack, H3dConvergesAt48) {
  // A finer lateral grid converges too, and refining it moves the peak by
  // discretization error only.
  StackParams fine;
  fine.grid_nx = fine.grid_ny = 48;
  const SolvedStack s = solve_stack(arch::DesignKind::kH3dThreeTier, fine);
  ASSERT_TRUE(s.sol.converged) << s.sol.residual_C << " after " << s.sol.sweeps;
  EXPECT_NEAR(s.sol.hottest_C(), h3d().sol.hottest_C(), 0.05);
}

TEST(Stack, TwoDRunsCooler) {
  const auto& h3d_sol = h3d().sol;
  const auto& flat = hybrid2d().sol;
  ASSERT_TRUE(h3d_sol.converged);
  ASSERT_TRUE(flat.converged);
  // Fig. 5: the 2D design sits ~3–4 C cooler than the 3D stack.
  EXPECT_LT(die_temps(flat)[0].mean_C, die_temps(h3d_sol)[0].mean_C);
}

TEST(Stack, SouthernGradientVisible) {
  // Fig. 5: power density is higher toward the die's southern region.
  const auto dies = die_temps(h3d().sol);
  const auto& t1 = dies.back();  // tier-1 carries the ADC band
  EXPECT_GT(t1.max_C - t1.min_C, 0.02);
}

TEST(Stack, HigherHtcCoolsChip) {
  EXPECT_LT(h3d_strong_htc().sol.hottest_C(), h3d().sol.hottest_C() - 5.0);
}

TEST(Stack, LayerLookupThrowsOnUnknown) {
  EXPECT_THROW((void)hybrid2d().sol.layer("nonexistent"), std::out_of_range);
}

}  // namespace
