#include "device/rram_chip_data.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/stats.hpp"

namespace h3dfact::device {

TestchipNoiseModel::TestchipNoiseModel(std::size_t rows, const RramParams& p,
                                       std::size_t samples, util::Rng& rng)
    : rows_(rows) {
  if (rows == 0 || samples == 0) {
    throw std::invalid_argument("testchip model needs rows and samples");
  }
  // Characterize a set of nominal levels spanning the signed dot range.
  // A column computing a bipolar dot product of value v has (rows+v)/2
  // matching (on) differential contributions and (rows-v)/2 opposing ones.
  std::vector<int> levels;
  const int r = static_cast<int>(rows);
  for (int frac = -4; frac <= 4; ++frac) {
    int v = frac * r / 4;
    if ((r + v) % 2 != 0) v += 1;  // keep the cell split integral
    levels.push_back(std::clamp(v, -r, r));
  }
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  const double delta_uS = p.g_on_uS - p.g_off_uS;
  for (int v : levels) {
    const std::size_t pos = static_cast<std::size_t>((r + v) / 2);
    util::RunningStats st;
    // Program a fresh differential column per batch of reads: programming
    // variation is per-device, read noise per access — both aggregated, as
    // in the silicon measurement.
    std::vector<RramCell> plus_cells(rows, RramCell(p));
    std::vector<RramCell> minus_cells(rows, RramCell(p));
    for (std::size_t i = 0; i < rows; ++i) {
      const bool match = i < pos;  // +1 contribution cells first
      plus_cells[i].program(match, rng);
      minus_cells[i].program(!match, rng);
    }
    for (std::size_t s = 0; s < samples; ++s) {
      double ip = 0.0, im = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        ip += plus_cells[i].read_uS(rng);
        im += minus_cells[i].read_uS(rng);
      }
      // Normalize the differential conductance back to match-count units.
      st.add((ip - im) / delta_uS);
    }
    table_.push_back(ReadoutStat{v, st.mean(), st.stddev()});
  }
  std::sort(table_.begin(), table_.end(),
            [](const ReadoutStat& a, const ReadoutStat& b) { return a.level < b.level; });
}

double TestchipNoiseModel::mean_at(int level) const {
  const std::vector<ReadoutStat>& t = table_;
  if (t.empty()) throw std::logic_error("empty testchip table");
  if (level <= t.front().level) return t.front().mean;
  if (level >= t.back().level) return t.back().mean;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (level <= t[i].level) {
      const double x0 = t[i - 1].level, x1 = t[i].level;
      const double w = (level - x0) / (x1 - x0);
      return t[i - 1].mean * (1.0 - w) + t[i].mean * w;
    }
  }
  return t.back().mean;
}

double TestchipNoiseModel::aggregate_sigma() const {
  double s = 0.0;
  for (const auto& row : table_) s += row.sigma;
  return s / static_cast<double>(table_.size());
}

double TestchipNoiseModel::gain() const {
  const auto& lo = table_.front();
  const auto& hi = table_.back();
  if (hi.level == lo.level) return 1.0;
  return (hi.mean - lo.mean) / static_cast<double>(hi.level - lo.level);
}

}  // namespace h3dfact::device
