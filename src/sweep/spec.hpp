#pragma once
// Declarative experiment grids (the sweep subsystem, part 1 of 3).
//
// Every paper artifact — Table II, Fig. 6a/6b, the ablations — is a grid of
// cells: a base TrialConfig crossed with one or more named axes (dimension,
// factor count, codebook size, noise sigma, ADC precision, ... any knob,
// including parameters only a factorizer factory understands). A SweepSpec
// states that grid declaratively; resolving cell i applies one point per
// axis to a copy of the base config and derives the cell's seed from
// (master seed, cell index) alone, so a cell's results are a pure function
// of the spec — independent of which shard or schedule executes it.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "resonator/trial_runner.hpp"

namespace h3dfact::sweep {

/// One fully-resolved grid cell: the TrialConfig run_trials executes, plus
/// the free-form parameters, coordinates and metadata the axes attached.
struct Cell {
  std::size_t index = 0;            ///< row-major index into the grid
  resonator::TrialConfig config;    ///< resolved config (seed already derived)
  /// Free-form numeric knobs for factories (e.g. "adc_bits", "sigma").
  std::map<std::string, double> params;
  /// (axis name, point label) per axis, in declaration order.
  std::vector<std::pair<std::string, std::string>> coordinates;
  /// Per-cell annotations carried into results (e.g. paper-reference values).
  std::map<std::string, std::string> meta;

  /// Convenience: params.at(name) with a default when absent.
  [[nodiscard]] double param(const std::string& name, double def) const {
    auto it = params.find(name);
    return it == params.end() ? def : it->second;
  }
};

/// One point on an axis: a label for reports plus the mutation it applies.
struct AxisPoint {
  std::string label;                       ///< report label for this point
  double value = 0.0;                      ///< numeric value, when meaningful
  std::function<void(Cell&)> apply;        ///< mutates config and/or params
  std::map<std::string, std::string> meta; ///< merged into the cell's meta
};

/// A named sweep axis. The static builders cover the common knobs; custom()
/// accepts fully custom AxisPoints for compound mutations (Table II rows
/// set F, M, trials, cap and the channel operating point in one point).
struct Axis {
  std::string name;               ///< axis name (a result/CSV column)
  std::vector<AxisPoint> points;  ///< the grid points along this axis

  [[nodiscard]] std::size_t size() const { return points.size(); }

  /// Hypervector dimension D.
  static Axis dim(std::vector<std::size_t> values);
  /// Factor count F.
  static Axis factors(std::vector<std::size_t> values);
  /// Codebook size M (the paper's Table II "D" column).
  static Axis codebook_size(std::vector<std::size_t> values);
  /// Query flip probability (perceptual-frontend noise).
  static Axis query_noise(std::vector<double> values);
  /// Free-form factory parameter: stores values under `name` in
  /// Cell::params for the spec's factory to consume (adc_bits, sigma, ...).
  static Axis param(std::string name, std::vector<double> values);
  /// Fully custom points under a shared axis name.
  static Axis custom(std::string name, std::vector<AxisPoint> pts);
};

/// Factory hook for sweeps whose factorizer depends on axis parameters: it
/// sees the resolved cell (config + params + meta) and builds the network a
/// cell's trials run through. When unset, the base config's own factory
/// (or the deterministic baseline) applies.
using CellFactory = std::function<resonator::ResonatorNetwork(
    std::shared_ptr<const hdc::CodebookSet>, const Cell&)>;

/// CellFactory for grids parameterized by the standard H3DFact channel
/// knobs in Cell::params — "adc_bits", "sigma", "clip", "theta" — with the
/// paper's operating point as the default for any knob the grid omits.
[[nodiscard]] resonator::ResonatorNetwork make_h3dfact_cell(
    std::shared_ptr<const hdc::CodebookSet> set, const Cell& cell);

/// The declarative grid: base config × axes (+ optional hooks).
struct SweepSpec {
  /// Sweep name: labels emitted artifacts, and for registered grids it IS
  /// the registry key (build_grid overwrites it with the GridRef name).
  std::string name = "sweep";
  /// Base TrialConfig; its seed is the sweep's master seed.
  resonator::TrialConfig base;
  /// Grid axes; the LAST axis varies fastest (row-major enumeration). An
  /// empty list declares the single-cell sweep (run_trials semantics).
  std::vector<Axis> axes;
  /// Optional parameterized factory (see CellFactory).
  CellFactory factory;
  /// Optional cross-axis hook applied after all axis points: attach
  /// metadata or resolve knobs that depend on several coordinates at once
  /// (e.g. per-(F, M) trial budgets, paper-reference cell values).
  std::function<void(Cell&)> finalize;

  /// Number of grid cells (product of axis sizes; 1 when no axes).
  [[nodiscard]] std::size_t cell_count() const;

  /// Resolve cell `index`: apply one point per axis, run finalize, derive
  /// the cell seed. Throws std::out_of_range past cell_count().
  [[nodiscard]] Cell cell(std::size_t index) const;
};

/// The per-cell seed schedule: a SplitMix64 mix of the master seed and the
/// cell index, so cells are mutually independent and schedule-invariant.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t master_seed,
                                      std::size_t cell_index);

}  // namespace h3dfact::sweep
