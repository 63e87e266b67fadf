#include "dse/space.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/evaluate.hpp"
#include "resonator/trial_runner.hpp"
#include "util/parse.hpp"

namespace h3dfact::dse {

namespace {

using sweep::GridParams;
using sweep::param_f64;
using sweep::param_i64;

// Split a comma-separated parameter into strictly-parsed integers. Every
// token goes through util::parse_i64 whole-token semantics, so " 4", "4.0",
// "1e2" or an empty slot reject loudly with the parameter's name — a
// silently-truncated axis would explore the wrong hardware.
std::vector<std::int64_t> param_i64_list(const GridParams& params,
                                         const std::string& key,
                                         std::vector<std::int64_t> def) {
  auto it = params.find(key);
  if (it == params.end()) return def;
  std::vector<std::int64_t> out;
  const std::string& text = it->second;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string token = text.substr(pos, end - pos);
    const auto parsed = util::parse_i64(token);
    if (!parsed) {
      throw std::invalid_argument("design-axis param " + key + ": token \"" +
                                  token + "\" is not a valid integer");
    }
    out.push_back(*parsed);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("design-axis param " + key + " is empty");
  }
  return out;
}

struct DesignKindPoint {
  const char* label;
  int index;  ///< arch::DesignKind value (the kParamDesign encoding)
};

// The design-kind axis: label ↔ DesignKind index. The kind carries tier
// count, tech-node assignment and the stochastic/deterministic accuracy
// path in one coordinate (arch::make_design resolves the rest).
std::vector<DesignKindPoint> parse_designs(const GridParams& params) {
  auto it = params.find("designs");
  const std::string text = it == params.end() ? "hybrid2d,h3d" : it->second;
  std::vector<DesignKindPoint> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string token = text.substr(pos, end - pos);
    if (token == "sram2d") {
      out.push_back({"sram2d", 0});
    } else if (token == "hybrid2d") {
      out.push_back({"hybrid2d", 1});
    } else if (token == "h3d") {
      out.push_back({"h3d", 2});
    } else {
      throw std::invalid_argument(
          "design-axis param designs: \"" + token +
          "\" is not a design kind (sram2d, hybrid2d or h3d)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("design-axis param designs is empty");
  }
  return out;
}

void check_range(const std::string& key, std::int64_t value, std::int64_t lo,
                 std::int64_t hi) {
  if (value < lo || value > hi) {
    throw std::invalid_argument(
        "design-axis param " + key + " = " + std::to_string(value) +
        " is outside [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

}  // namespace

sweep::SweepSpec build_design_space(const GridParams& p) {
  const std::vector<DesignKindPoint> designs = parse_designs(p);
  const std::vector<std::int64_t> rows = param_i64_list(p, "rows", {256});
  const std::vector<std::int64_t> subarrays =
      param_i64_list(p, "subarrays", {4});
  const std::vector<std::int64_t> adc = param_i64_list(p, "adc", {4, 8});
  for (std::int64_t r : rows) check_range("rows", r, 8, 4096);
  for (std::int64_t s : subarrays) check_range("subarrays", s, 1, 64);
  for (std::int64_t b : adc) check_range("adc", b, 1, 16);

  const std::int64_t factors = param_i64(p, "f", 3);
  const std::int64_t m = param_i64(p, "m", 16);
  const std::int64_t trials = param_i64(p, "trials", 40);
  const std::int64_t cap = param_i64(p, "cap", 1000);
  const std::int64_t seed = param_i64(p, "seed", 20240808);
  const std::int64_t thermal = param_i64(p, "thermal", 0);
  const double sigma = param_f64(p, "sigma", 0.5);
  const double theta = param_f64(p, "theta", 1.5);
  const double clip = param_f64(p, "clip", 4.0);
  check_range("f", factors, 2, 16);
  check_range("m", m, 2, 65536);
  check_range("trials", trials, 1, 1'000'000);
  check_range("cap", cap, 1, 100'000'000);
  check_range("thermal", thermal, 0, 256);

  sweep::SweepSpec spec;
  spec.name = kDesignGrid;
  spec.base.factors = static_cast<std::size_t>(factors);
  spec.base.codebook_size = static_cast<std::size_t>(m);
  spec.base.trials = static_cast<std::size_t>(trials);
  spec.base.max_iterations = static_cast<std::size_t>(cap);
  spec.base.seed = static_cast<std::uint64_t>(seed);

  std::vector<sweep::AxisPoint> design_points;
  for (const DesignKindPoint& d : designs) {
    sweep::AxisPoint pt;
    pt.label = d.label;
    pt.value = static_cast<double>(d.index);
    const int index = d.index;
    pt.apply = [index](sweep::Cell& c) {
      c.params[kParamDesign] = static_cast<double>(index);
    };
    design_points.push_back(std::move(pt));
  }
  spec.axes.push_back(
      sweep::Axis::custom("design", std::move(design_points)));
  spec.axes.push_back(sweep::Axis::param(
      kParamRows, std::vector<double>(rows.begin(), rows.end())));
  spec.axes.push_back(sweep::Axis::param(
      kParamSubarrays,
      std::vector<double>(subarrays.begin(), subarrays.end())));
  spec.axes.push_back(sweep::Axis::param(
      kParamAdcBits, std::vector<double>(adc.begin(), adc.end())));

  // The geometry axes define the hypervector dimension; the channel knobs
  // ride along so the evaluator and the factory read one source of truth.
  spec.finalize = [sigma, theta, clip, thermal](sweep::Cell& c) {
    const auto r = static_cast<std::size_t>(c.param(kParamRows, 256));
    const auto s = static_cast<std::size_t>(c.param(kParamSubarrays, 4));
    c.config.dim = r * s;
    c.params["sigma"] = sigma;
    c.params["theta"] = theta;
    c.params["clip"] = clip;
    if (thermal > 0) {
      c.params[kParamThermalN] = static_cast<double>(thermal);
    }
  };

  spec.factory = [](std::shared_ptr<const hdc::CodebookSet> set,
                    const sweep::Cell& cell) {
    // The SRAM 2D design computes digitally: exact similarities, the
    // deterministic baseline dynamics. The RRAM designs read through the
    // stochastic H3DFact channel at the cell's ADC precision.
    if (cell.param(kParamDesign, 2) < 0.5) {
      return resonator::make_baseline(std::move(set), cell.config);
    }
    return sweep::make_h3dfact_cell(std::move(set), cell);
  };
  return spec;
}

void register_design_spaces() {
  sweep::register_grid(kDesignGrid, build_design_space);
}

}  // namespace h3dfact::dse
