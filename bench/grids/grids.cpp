#include "grids/grids.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "cim/engine.hpp"
#include "device/pcm_cell.hpp"
#include "device/rram_chip_data.hpp"

namespace h3dfact::bench::grids {

namespace {

using sweep::GridParams;
using sweep::param_f64;
using sweep::param_flag;
using sweep::param_u64;

// --- table2 -----------------------------------------------------------------

// One Table II row: the (F, M) size point with its trial budgets, caps
// and channel operating point.
struct Table2Row {
  std::size_t F;            ///< factor count
  std::size_t M;            ///< codebook size (the paper's "D" column)
  std::size_t base_trials;  ///< baseline factorizer trial budget
  std::size_t base_cap;     ///< baseline iteration cap
  std::size_t h3d_trials;   ///< H3DFact trial budget
  std::size_t h3d_cap;      ///< H3DFact iteration cap
  double theta;             ///< VTGT sense threshold (crosstalk sigmas)
  double sigma;             ///< device-noise sigma (crosstalk sigmas)
};

// The row list for a given scale (--full) and row trim (--rows).
std::vector<Table2Row> table2_rows(bool full, std::size_t trim) {
  // Scaled-down defaults (shape-preserving); --full lifts trials and caps.
  // theta follows the VTGT tuning schedule: the sense threshold grows with
  // codebook size (more crosstalk survivors to reject) and shrinks with
  // factor count (weaker initial similarity signal).
  std::vector<Table2Row> rows = {
      {3, 16, 60, 500, 40, 1000, 1.5, 0.5},
      {3, 32, 60, 1000, 40, 1000, 1.5, 0.5},
      {3, 64, 40, 2000, 40, 2000, 1.5, 0.5},
      {3, 128, 30, 2000, 25, 4000, 1.5, 0.5},
      {3, 256, 15, 1000, 15, 8000, 2.0, 0.5},
      {3, 512, 8, 500, 10, 50000, 3.0, 1.0},
      {4, 16, 60, 1000, 40, 1000, 1.0, 0.5},
      {4, 32, 40, 2000, 30, 4000, 1.5, 0.5},
      {4, 64, 20, 2000, 12, 20000, 1.5, 0.5},
  };
  if (full) {
    for (auto& r : rows) {
      r.base_trials *= 3;
      r.h3d_trials *= 3;
      r.h3d_cap *= 4;
    }
    rows.push_back({4, 128, 20, 2000, 10, 200000, 1.75, 0.5});
  }
  if (trim > 0 && trim < rows.size()) rows.resize(trim);
  return rows;
}

struct PaperCell {
  const char* acc_base;
  const char* acc_h3d;
  const char* it_base;
  const char* it_h3d;
};

// Paper Table II values, keyed by (F, M).
PaperCell paper_cell(std::size_t F, std::size_t M) {
  if (F == 3) {
    switch (M) {
      case 16: return {"99.4", "99.3", "4", "5"};
      case 32: return {"99.3", "99.3", "13", "15"};
      case 64: return {"99.1", "99.3", "43", "39"};
      case 128: return {"96.9", "99.3", "Fail", "108"};
      case 256: return {"10.8", "99.2", "Fail", "443"};
      case 512: return {"0.2", "99.2", "Fail", "1685"};
      default: break;
    }
  } else if (F == 4) {
    switch (M) {
      case 16: return {"99.2", "99.2", "31", "33"};
      case 32: return {"99.1", "99.2", "234", "140"};
      case 64: return {"89.9", "99.2", "Fail", "1347"};
      case 128: return {"0", "99.2", "Fail", "17529"};
      case 256: return {"0", "99.2", "Fail", "269931"};
      case 512: return {"0", "99.2", "Fail", "2824079"};
      default: break;
    }
  }
  return {"-", "-", "-", "-"};
}

sweep::SweepSpec build_table2(const GridParams& p) {
  const bool full = param_flag(p, "full");
  const auto dim = static_cast<std::size_t>(param_u64(p, "dim", 1024));
  const auto seed = param_u64(p, "seed", 20240404);
  const auto trim = static_cast<std::size_t>(param_u64(p, "rows", 0));
  const std::vector<Table2Row> rows = table2_rows(full, trim);

  sweep::SweepSpec spec;
  spec.name = kTable2;
  spec.base.dim = dim;
  spec.base.seed = seed;

  spec.axes.push_back(sweep::Axis::custom(
      "factorizer",
      {sweep::AxisPoint{"baseline", 0.0,
                        [](sweep::Cell& c) { c.params["stochastic"] = 0; },
                        {}},
       sweep::AxisPoint{"h3dfact", 1.0,
                        [](sweep::Cell& c) { c.params["stochastic"] = 1; },
                        {}}}));

  std::vector<sweep::AxisPoint> size_points;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Table2Row& r = rows[i];
    sweep::AxisPoint pt;
    pt.label = "F" + std::to_string(r.F) + "/M" + std::to_string(r.M);
    pt.value = static_cast<double>(r.M);
    pt.apply = [r, i](sweep::Cell& c) {
      c.config.factors = r.F;
      c.config.codebook_size = r.M;
      c.params["row"] = static_cast<double>(i);
      c.params["theta"] = r.theta;
      c.params["sigma"] = r.sigma;
    };
    size_points.push_back(std::move(pt));
  }
  spec.axes.push_back(sweep::Axis::custom("size", std::move(size_points)));

  // Trial budgets and paper references depend on both coordinates at once.
  spec.finalize = [rows](sweep::Cell& c) {
    const Table2Row& r = rows[static_cast<std::size_t>(c.param("row", 0))];
    const bool h3d = c.param("stochastic", 0) > 0.5;
    c.config.trials = h3d ? r.h3d_trials : r.base_trials;
    c.config.max_iterations = h3d ? r.h3d_cap : r.base_cap;
    const PaperCell paper = paper_cell(r.F, r.M);
    c.meta["paper_acc"] = h3d ? paper.acc_h3d : paper.acc_base;
    c.meta["paper_iters"] = h3d ? paper.it_h3d : paper.it_base;
  };

  spec.factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                    const sweep::Cell& cell) {
    if (cell.param("stochastic", 0) < 0.5) {
      return resonator::make_baseline(std::move(s),
                                      cell.config.max_iterations);
    }
    return sweep::make_h3dfact_cell(std::move(s), cell);
  };
  return spec;
}

// --- fig6a ------------------------------------------------------------------

sweep::SweepSpec build_fig6a(const GridParams& p) {
  sweep::SweepSpec spec;
  spec.name = kFig6a;
  spec.base.dim = static_cast<std::size_t>(param_u64(p, "dim", 1024));
  spec.base.factors = static_cast<std::size_t>(param_u64(p, "f", 3));
  spec.base.codebook_size = static_cast<std::size_t>(param_u64(p, "m", 32));
  spec.base.trials = static_cast<std::size_t>(param_u64(p, "trials", 100));
  spec.base.max_iterations = static_cast<std::size_t>(param_u64(p, "cap", 300));
  spec.base.seed = param_u64(p, "seed", 606);
  spec.base.record_correct_trace = true;
  spec.axes.push_back(sweep::Axis::param("adc_bits", {4, 8}));
  spec.factory = sweep::make_h3dfact_cell;
  return spec;
}

// --- fig6b ------------------------------------------------------------------

std::uint64_t fig6b_seed(const GridParams& p) {
  return param_u64(p, "seed", 66);
}

// The fig6b factorizer: the device-level CIM engine, its 4-bit macros
// programmed from the cell seed and its VTGT retuned by `retune`.
sweep::CellFactory fig6b_factory(double retune) {
  return [params = device::default_rram_40nm(), retune](
             std::shared_ptr<const hdc::CodebookSet> set,
             const sweep::Cell& cell) {
    cim::MacroConfig mc;
    mc.rows = 256;
    mc.subarrays = 4;
    mc.adc_bits = 4;
    mc.rram = params;
    // Programming the crossbars is stochastic: seed it from the cell seed
    // so every worker builds the identical modelled chip.
    util::Rng program_rng(cell.config.seed ^ 0xc1b0a7e57c41bULL);
    auto engine = std::make_shared<cim::CimMvmEngine>(set, mc, program_rng);
    engine->retune_vtgt(retune);
    resonator::ResonatorOptions opts;
    opts.max_iterations = cell.config.max_iterations;
    opts.detect_limit_cycles = false;
    opts.record_correct_trace = true;
    return resonator::ResonatorNetwork(std::move(set), std::move(engine),
                                       opts);
  };
}

sweep::SweepSpec build_fig6b(const GridParams& p) {
  // Every worker reconstructs the same testchip, so all derive the same
  // VTGT retune factor.
  const double retune = fig6b_testchip(p).vtgt_retune_factor();

  sweep::SweepSpec spec;
  spec.name = kFig6b;
  spec.base.dim = 1024;
  spec.base.factors = static_cast<std::size_t>(param_u64(p, "f", 3));
  spec.base.codebook_size = static_cast<std::size_t>(param_u64(p, "m", 7));
  spec.base.trials = static_cast<std::size_t>(param_u64(p, "trials", 50));
  spec.base.max_iterations = static_cast<std::size_t>(param_u64(p, "cap", 60));
  spec.base.seed = fig6b_seed(p) + 10;
  spec.base.record_correct_trace = true;
  spec.factory = fig6b_factory(retune);
  return spec;
}

// --- equivalence ------------------------------------------------------------

// The cells scripts/check_equivalence.py compares between a parent and a
// change (docs/sweeps.md, "Statistical equivalence"): Table II's F3/M16,
// F3/M32, F3/M64 and F4/M16 H3DFact cells at their Table II operating
// points and caps; the 8-bit-ADC design point of the dse-smoke frontier
// (bench/baselines/frontier-small.json: F3/M16, cap 200); and fig6b's CIM
// cell on its testchip. A cell's seed draws its codebooks (and fig6b's
// programmed chip), and one codebook set shifts mean iterations by several
// percent, more than the gate resolves. So each cell runs as kReplicas
// replicas, each with its own seed and codebooks, and the gate pools them:
// 40000 H3DFact trials and 6000 CIM trials per cell, which give the rank
// test a power of at least 0.8 against a 5 % shift in mean iterations
// (docs/sweeps.md). `theta`, when given, replaces the sense threshold of
// every H3DFact cell: the gate's self-test must tell 1.4 from 1.5.
sweep::SweepSpec build_equivalence(const GridParams& p) {
  constexpr std::size_t kReplicas = 400;
  constexpr std::size_t kH3dfactTrials = 100;  // per replica
  constexpr std::size_t kCimTrials = 15;
  const bool retheta = p.count("theta") != 0;
  const double theta = param_f64(p, "theta", 1.5);
  const double retune = fig6b_testchip({}).vtgt_retune_factor();

  sweep::SweepSpec spec;
  spec.name = kEquivalence;
  spec.base.dim = 1024;
  spec.base.seed = param_u64(p, "seed", 3301);
  std::vector<sweep::AxisPoint> points;
  auto h3dfact = [&](const Table2Row& r, int adc_bits, std::string label) {
    sweep::AxisPoint pt;
    pt.label = std::move(label);
    pt.value = static_cast<double>(r.M);
    pt.apply = [r, adc_bits,
                theta = retheta ? theta : r.theta](sweep::Cell& c) {
      c.config.factors = r.F;
      c.config.codebook_size = r.M;
      c.config.trials = kH3dfactTrials;
      c.config.max_iterations = r.h3d_cap;
      c.params["theta"] = theta;
      c.params["sigma"] = r.sigma;
      c.params["adc_bits"] = adc_bits;
    };
    points.push_back(std::move(pt));
  };
  for (const Table2Row& r : table2_rows(false, 0)) {
    if ((r.F == 3 && r.M <= 64) || (r.F == 4 && r.M == 16)) {
      h3dfact(r, 4, "F" + std::to_string(r.F) + "/M" + std::to_string(r.M));
    }
  }
  // dse_search's channel defaults (sigma 0.5, theta 1.5, clip 4) at the
  // dse-smoke cap of 200; the row's trial budgets go unused.
  h3dfact({3, 16, 0, 0, 0, 200, 1.5, 0.5}, 8, "F3/M16/A8");
  sweep::AxisPoint cim;
  cim.label = "fig6b";
  cim.value = 7;
  cim.apply = [](sweep::Cell& c) {
    c.config.factors = 3;
    c.config.codebook_size = 7;
    c.config.trials = kCimTrials;
    c.config.max_iterations = 60;
    c.params["cim"] = 1;
  };
  points.push_back(std::move(cim));
  spec.axes.push_back(sweep::Axis::custom("cell", std::move(points)));
  std::vector<double> replicas(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    replicas[i] = static_cast<double>(i);
  }
  spec.axes.push_back(sweep::Axis::param("replica", std::move(replicas)));

  spec.factory = [cim_factory = fig6b_factory(retune)](
                     std::shared_ptr<const hdc::CodebookSet> set,
                     const sweep::Cell& cell) {
    if (cell.param("cim", 0) > 0.5) return cim_factory(std::move(set), cell);
    return sweep::make_h3dfact_cell(std::move(set), cell);
  };
  return spec;
}

// --- ablation_noise ---------------------------------------------------------

sweep::SweepSpec noise_base(const GridParams& p) {
  sweep::SweepSpec spec;
  spec.base.dim = static_cast<std::size_t>(param_u64(p, "dim", 1024));
  spec.base.factors = 3;
  spec.base.codebook_size = static_cast<std::size_t>(param_u64(p, "m", 128));
  spec.base.trials = static_cast<std::size_t>(param_u64(p, "trials", 20));
  spec.base.max_iterations =
      static_cast<std::size_t>(param_u64(p, "cap", 6000));
  spec.base.seed = param_u64(p, "seed", 321);
  spec.factory = sweep::make_h3dfact_cell;
  return spec;
}

sweep::SweepSpec build_noise_sigma(const GridParams& p) {
  sweep::SweepSpec spec = noise_base(p);
  spec.name = kAblationNoiseSigma;
  spec.axes.push_back(
      sweep::Axis::param("sigma", {0.0, 0.1, 0.25, 0.5, 1.0, 2.0}));
  return spec;
}

sweep::SweepSpec build_noise_theta(const GridParams& p) {
  sweep::SweepSpec spec = noise_base(p);
  spec.name = kAblationNoiseTheta;
  spec.base.seed += 7;
  spec.axes.push_back(
      sweep::Axis::param("theta", {0.0, 0.75, 1.5, 2.5, 3.5}));
  return spec;
}

// --- ablation_device --------------------------------------------------------

sweep::SweepSpec build_device(const GridParams& p) {
  const auto dim = static_cast<std::size_t>(param_u64(p, "dim", 1024));
  const auto M = static_cast<std::size_t>(param_u64(p, "m", 128));
  const auto seed = param_u64(p, "seed", 55);

  // Extract per-technology similarity-path statistics (256-row columns).
  util::Rng rng(seed);
  device::TestchipNoiseModel rram(256, device::default_rram_40nm(), 300, rng);
  auto pcm_fresh =
      device::pcm_path_stats(device::default_pcm(), 256, 1.0, 300, rng);
  auto pcm_aged =
      device::pcm_path_stats(device::default_pcm(), 256, 1e5, 300, rng);

  struct Tech {
    const char* name;
    double sigma;  ///< similarity counts per 256-row column
    double gain;
  };
  const double col_scale = std::sqrt(static_cast<double>(dim) / 256.0);
  std::vector<Tech> techs = {
      {"RRAM (testchip stats)", rram.aggregate_sigma() * col_scale,
       rram.gain()},
      {"PCM fresh (t=1s)", pcm_fresh.sigma * col_scale, pcm_fresh.gain},
      {"PCM aged (t=1e5s)", pcm_aged.sigma * col_scale, pcm_aged.gain},
      {"ideal (no device noise)", 0.0, 1.0},
  };

  sweep::SweepSpec spec;
  spec.name = kAblationDevice;
  spec.base.dim = dim;
  spec.base.factors = 3;
  spec.base.codebook_size = M;
  spec.base.trials = static_cast<std::size_t>(param_u64(p, "trials", 20));
  spec.base.max_iterations =
      static_cast<std::size_t>(param_u64(p, "cap", 6000));
  spec.base.seed = seed + 13;

  std::vector<sweep::AxisPoint> points;
  for (const Tech& tech : techs) {
    sweep::AxisPoint pt;
    pt.label = tech.name;
    pt.value = tech.sigma;
    // Drift-induced gain applies uniformly to the similarity values; the
    // sign activation is scale-invariant, so only the threshold/sigma ratio
    // shifts: fold the gain into an effective threshold.
    const double sigma_frac = tech.sigma / std::sqrt(static_cast<double>(dim));
    const double threshold = 1.5 / std::max(tech.gain, 1e-3);
    pt.apply = [sigma_frac, threshold](sweep::Cell& c) {
      c.params["sigma"] = sigma_frac;
      c.params["theta"] = threshold;
    };
    pt.meta["path_sigma_counts"] = util::Table::fmt(tech.sigma, 1);
    pt.meta["gain"] = util::Table::fmt(tech.gain, 3);
    points.push_back(std::move(pt));
  }
  spec.axes.push_back(sweep::Axis::custom("technology", std::move(points)));
  spec.factory = sweep::make_h3dfact_cell;
  return spec;
}

// --- ablation_geometry ------------------------------------------------------

sweep::SweepSpec build_geometry(const GridParams&) {
  struct Geometry {
    std::size_t d, f;
  };
  sweep::SweepSpec spec;
  spec.name = kAblationGeometry;
  std::vector<sweep::AxisPoint> points;
  for (auto g : {Geometry{64, 16}, {128, 8}, {256, 4}, {512, 2}}) {
    sweep::AxisPoint pt;
    pt.label = "d" + std::to_string(g.d) + "/f" + std::to_string(g.f);
    pt.value = static_cast<double>(g.d);
    pt.apply = [g](sweep::Cell& c) {
      c.params["d"] = static_cast<double>(g.d);
      c.params["f"] = static_cast<double>(g.f);
    };
    points.push_back(std::move(pt));
  }
  spec.axes.push_back(sweep::Axis::custom("geometry", std::move(points)));
  return spec;
}

}  // namespace

device::TestchipNoiseModel fig6b_testchip(const sweep::GridParams& p) {
  util::Rng rng(fig6b_seed(p));
  return device::TestchipNoiseModel(256, device::default_rram_40nm(), 400,
                                    rng);
}

void register_all() {
  sweep::register_grid(kTable2, build_table2);
  sweep::register_grid(kFig6a, build_fig6a);
  sweep::register_grid(kFig6b, build_fig6b);
  sweep::register_grid(kAblationNoiseSigma, build_noise_sigma);
  sweep::register_grid(kAblationNoiseTheta, build_noise_theta);
  sweep::register_grid(kAblationDevice, build_device);
  sweep::register_grid(kAblationGeometry, build_geometry);
  sweep::register_grid(kEquivalence, build_equivalence);
}

}  // namespace h3dfact::bench::grids
