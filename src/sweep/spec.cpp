#include "sweep/spec.hpp"

#include <stdexcept>

#include "resonator/channels.hpp"
#include "resonator/resonator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace h3dfact::sweep {

namespace {

Axis size_axis(std::string name, std::vector<std::size_t> values,
               void (*set)(resonator::TrialConfig&, std::size_t)) {
  Axis axis;
  axis.name = std::move(name);
  axis.points.reserve(values.size());
  for (std::size_t v : values) {
    AxisPoint p;
    p.label = std::to_string(v);
    p.value = static_cast<double>(v);
    p.apply = [set, v](Cell& cell) { set(cell.config, v); };
    axis.points.push_back(std::move(p));
  }
  return axis;
}

}  // namespace

Axis Axis::dim(std::vector<std::size_t> values) {
  return size_axis("dim", std::move(values),
                   [](resonator::TrialConfig& c, std::size_t v) { c.dim = v; });
}

Axis Axis::factors(std::vector<std::size_t> values) {
  return size_axis(
      "F", std::move(values),
      [](resonator::TrialConfig& c, std::size_t v) { c.factors = v; });
}

Axis Axis::codebook_size(std::vector<std::size_t> values) {
  return size_axis(
      "M", std::move(values),
      [](resonator::TrialConfig& c, std::size_t v) { c.codebook_size = v; });
}

Axis Axis::query_noise(std::vector<double> values) {
  Axis axis;
  axis.name = "query_noise";
  axis.points.reserve(values.size());
  for (double v : values) {
    AxisPoint p;
    p.label = util::Table::fmt(v, 3);
    p.value = v;
    p.apply = [v](Cell& cell) { cell.config.query_flip_prob = v; };
    axis.points.push_back(std::move(p));
  }
  return axis;
}

Axis Axis::param(std::string name, std::vector<double> values) {
  Axis axis;
  axis.name = name;
  axis.points.reserve(values.size());
  for (double v : values) {
    AxisPoint p;
    p.label = util::Table::fmt(v, 3);
    p.value = v;
    p.apply = [name, v](Cell& cell) { cell.params[name] = v; };
    axis.points.push_back(std::move(p));
  }
  return axis;
}

Axis Axis::custom(std::string name, std::vector<AxisPoint> pts) {
  Axis axis;
  axis.name = std::move(name);
  axis.points = std::move(pts);
  return axis;
}

resonator::ResonatorNetwork make_h3dfact_cell(
    std::shared_ptr<const hdc::CodebookSet> set, const Cell& cell) {
  resonator::ResonatorOptions opts;
  opts.max_iterations = cell.config.max_iterations;
  opts.detect_limit_cycles = false;
  opts.record_correct_trace = cell.config.record_correct_trace;
  opts.channel = resonator::make_h3dfact_channel(
      cell.config.dim, static_cast<int>(cell.param("adc_bits", 4)),
      cell.param("sigma", 0.5), cell.param("clip", 4.0),
      cell.param("theta", 1.5));
  return resonator::ResonatorNetwork(std::move(set), std::move(opts));
}

std::uint64_t cell_seed(std::uint64_t master_seed, std::size_t cell_index) {
  // Two SplitMix64 rounds over (master, index): adjacent indices land in
  // uncorrelated streams, and index 0 does not collapse onto the master.
  std::uint64_t state =
      master_seed ^ (0x5ee9c0de5eedULL + cell_index * 0x9e3779b97f4a7c15ULL);
  util::splitmix64(state);
  return util::splitmix64(state);
}

std::size_t SweepSpec::cell_count() const {
  std::size_t n = 1;
  for (const Axis& axis : axes) {
    if (axis.points.empty()) {
      throw std::logic_error("sweep axis '" + axis.name + "' has no points");
    }
    n *= axis.points.size();
  }
  return n;
}

Cell SweepSpec::cell(std::size_t index) const {
  const std::size_t total = cell_count();
  if (index >= total) {
    throw std::out_of_range("sweep cell index " + std::to_string(index) +
                            " out of range (" + std::to_string(total) + ")");
  }
  Cell cell;
  cell.index = index;
  cell.config = base;

  // Row-major decomposition: the last axis varies fastest.
  std::size_t stride = total;
  std::size_t rem = index;
  for (const Axis& axis : axes) {
    stride /= axis.points.size();
    const AxisPoint& point = axis.points[rem / stride];
    rem %= stride;
    cell.coordinates.emplace_back(axis.name, point.label);
    for (const auto& [k, v] : point.meta) cell.meta[k] = v;
    if (point.apply) point.apply(cell);
  }
  if (finalize) finalize(cell);
  cell.config.seed = cell_seed(base.seed, index);
  return cell;
}

}  // namespace h3dfact::sweep
