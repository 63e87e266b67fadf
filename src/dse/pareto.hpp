#pragma once
// Pareto machinery for design-space exploration (the dse subsystem, part 1).
//
// A design point scores on several objectives at once (accuracy up; energy,
// area and peak temperature down), so "best" is a FRONTIER, not a single
// winner: the set of points no other point beats on every objective
// simultaneously. Everything here is pure and deterministic — no RNG, no
// floating-point reordering, ties broken by point id — so a frontier is a
// function of its input set alone and two runs (or two machines) that
// evaluate the same points emit the identical frontier. The halving
// scheduler (halving.hpp) and the standing frontier artifact CI diffs
// (scripts/check_frontier.py) both lean on that.

#include <cstddef>
#include <string>
#include <vector>

namespace h3dfact::dse {

/// Optimization direction of one objective column.
enum class Direction { kMaximize, kMinimize };

/// One named objective over a metric column.
struct Objective {
  std::string name;
  Direction direction = Direction::kMinimize;
};

/// A candidate: an id (the grid cell index) plus one value per objective,
/// in the objective list's order.
struct MetricPoint {
  std::size_t id = 0;
  std::vector<double> metrics;
};

/// True when `a` is at least as good as `b` on every objective and strictly
/// better on at least one. Antisymmetric and transitive over points with
/// finite metrics; a point carrying a NaN metric never dominates anything.
/// Throws std::invalid_argument when either point's metric count differs
/// from the objective count.
[[nodiscard]] bool dominates(const MetricPoint& a, const MetricPoint& b,
                             const std::vector<Objective>& objectives);

/// The non-dominated subset of `points`, sorted ascending by id.
/// Deterministic tie-breaking: points with EXACTLY equal metric vectors
/// keep only the lowest id, and points with any NaN metric are dropped
/// (they compare unordered, which would make membership order-dependent).
/// Idempotent and invariant under input permutation.
[[nodiscard]] std::vector<MetricPoint> pareto_front(
    std::vector<MetricPoint> points, const std::vector<Objective>& objectives);

/// Split `points` into successive non-dominated layers: layer 0 is the
/// frontier, layer 1 the frontier of the remainder, and so on (NSGA-style
/// peeling). Every returned layer is sorted ascending by id; duplicate and
/// NaN points land in no layer (pareto_front's rules). The halving
/// scheduler promotes by layer rank before any scalar score.
[[nodiscard]] std::vector<std::vector<MetricPoint>> nondominated_layers(
    std::vector<MetricPoint> points, const std::vector<Objective>& objectives);

}  // namespace h3dfact::dse
