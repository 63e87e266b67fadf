// Tests for the thermal solver: conservation/physics sanity on analytic
// configurations, bit-exactness against the lexicographic SOR reference,
// stack construction, energy balance, and the Fig. 5 operating points.

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// Result of the reference solve: per-layer cell maps plus the stop state.
struct ReferenceSolution {
  std::vector<std::vector<double>> T;
  std::size_t sweeps = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Gauss-Seidel SOR in lexicographic (l, iy, ix) order with explicit
/// boundary branches: the reference that ThermalGrid::solve's wavefront
/// sweep must reproduce bit for bit. It is the solver's earlier loop,
/// verbatim apart from counting only the sweeps that ran.
ReferenceSolution lexicographic_sor(const GridConfig& config_,
                                    const std::vector<Layer>& layers_) {
  const std::size_t nx = config_.nx, ny = config_.ny, nc = nx * ny;
  const std::size_t nl = layers_.size();
  const double dx = config_.width_mm * 1e-3 / static_cast<double>(nx);
  const double dy = config_.height_mm * 1e-3 / static_cast<double>(ny);

  // Per-layer conductances.
  std::vector<double> gx(nl), gy(nl), gz_half(nl);  // lateral + half-vertical
  for (std::size_t l = 0; l < nl; ++l) {
    const double t = layers_[l].thickness_um * 1e-6;
    const double k = layers_[l].k_W_mK;
    gx[l] = k * dy * t / dx;            // east-west conductance
    gy[l] = k * dx * t / dy;            // north-south conductance
    gz_half[l] = k * dx * dy / (t / 2); // cell centre to face
  }
  // Inter-layer vertical conductance: series of two half-cells (layer 0 is
  // the TOP of the stack).
  std::vector<double> gz(nl > 0 ? nl - 1 : 0);
  for (std::size_t l = 0; l + 1 < nl; ++l) {
    gz[l] = 1.0 / (1.0 / gz_half[l] + 1.0 / gz_half[l + 1]);
  }
  const double g_top = config_.h_top_W_m2K * dx * dy;     // to ambient
  const double g_bottom = config_.h_bottom_W_m2K * dx * dy;

  // Temperature state, initialized at ambient.
  std::vector<std::vector<double>> T(nl, std::vector<double>(nc, config_.ambient_C));

  auto cell_power = [&](std::size_t l, std::size_t c) {
    return layers_[l].power_W.empty() ? 0.0 : layers_[l].power_W[c];
  };

  const double omega = config_.sor_omega;
  double residual = 0.0;
  std::size_t sweep = 0;
  for (; sweep < config_.max_sweeps; ++sweep) {
    residual = 0.0;
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t c = iy * nx + ix;
          double gsum = 0.0, flux = cell_power(l, c);
          // Lateral neighbours (adiabatic side walls).
          if (ix > 0)      { gsum += gx[l]; flux += gx[l] * T[l][c - 1]; }
          if (ix + 1 < nx) { gsum += gx[l]; flux += gx[l] * T[l][c + 1]; }
          if (iy > 0)      { gsum += gy[l]; flux += gy[l] * T[l][c - nx]; }
          if (iy + 1 < ny) { gsum += gy[l]; flux += gy[l] * T[l][c + nx]; }
          // Vertical neighbours / boundaries.
          if (l == 0) { gsum += g_top; flux += g_top * config_.ambient_C; }
          else        { gsum += gz[l - 1]; flux += gz[l - 1] * T[l - 1][c]; }
          if (l + 1 == nl) { gsum += g_bottom; flux += g_bottom * config_.ambient_C; }
          else             { gsum += gz[l]; flux += gz[l] * T[l + 1][c]; }

          const double t_new = flux / gsum;
          const double t_sor = T[l][c] + omega * (t_new - T[l][c]);
          residual = std::max(residual, std::abs(t_sor - T[l][c]));
          T[l][c] = t_sor;
        }
      }
    }
    if (residual < config_.tolerance_C) break;
  }

  ReferenceSolution ref;
  ref.T = std::move(T);
  ref.sweeps = std::min(sweep + 1, config_.max_sweeps);
  ref.residual = residual;
  ref.converged = residual < config_.tolerance_C;
  return ref;
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
  std::vector<Layer> layers{{"die", 100.0, 120.0, {}}};
  ThermalGrid grid(tiny_config(), layers);
  auto sol = grid.solve();
  EXPECT_TRUE(sol.converged);
  EXPECT_NEAR(sol.layers[0].mean_C, 25.0, 1e-6);
  EXPECT_NEAR(sol.layers[0].max_C, sol.layers[0].min_C, 1e-6);
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
      {"sor_omega", [](GridConfig& c) { c.sor_omega = 0.0; }},
      {"sor_omega", [](GridConfig& c) { c.sor_omega = 2.0; }},
      {"sor_omega", [](GridConfig& c) { c.sor_omega = 2.5; }},
      {"sor_omega", [](GridConfig& c) { c.sor_omega = nan; }},
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
  edge.sor_omega = 1.0;
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

  // A converged run counts the sweep that met the tolerance; capping one
  // sweep short of it stops there, unconverged.
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

TEST(ThermalGrid, WavefrontSweepMatchesLexicographicSor) {
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
    auto cfg = grid(nx, ny);
    cfg.sor_omega = nx == 1 ? 1.0 : 1.5;
    cases.push_back({std::to_string(nx) + "x" + std::to_string(ny) + "x3", cfg,
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
  auto stack_cfg = grid(12, 9);
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
  stack_cfg.max_sweeps = 50;
  cases.push_back({"12x9 stack capped at 50", stack_cfg, stack});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ThermalSolution sol = ThermalGrid(c.cfg, c.layers).solve();
    const ReferenceSolution ref = lexicographic_sor(c.cfg, c.layers);
    EXPECT_EQ(sol.sweeps, ref.sweeps);
    EXPECT_EQ(sol.converged, ref.converged);
    EXPECT_EQ(std::memcmp(&sol.residual_C, &ref.residual, sizeof(double)), 0)
        << sol.residual_C << " vs " << ref.residual;
    ASSERT_EQ(sol.layers.size(), ref.T.size());
    for (std::size_t l = 0; l < ref.T.size(); ++l) {
      ASSERT_EQ(sol.layers[l].cells_C.size(), ref.T[l].size());
      EXPECT_EQ(std::memcmp(sol.layers[l].cells_C.data(), ref.T[l].data(),
                            ref.T[l].size() * sizeof(double)),
                0)
          << "layer " << sol.layers[l].name;
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
  // equals the injected power. The max-update stop leaves a small imbalance
  // (a few 1e-4 relative at the Fig. 5 defaults), well inside 1e-3.
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
    EXPECT_NEAR(out_W, in_W, 1e-3 * in_W) << "h_top " << cfg.h_top_W_m2K;
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
