#include "dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace h3dfact::dse {

namespace {

void check_width(const MetricPoint& p, const std::vector<Objective>& objectives) {
  if (p.metrics.size() != objectives.size()) {
    throw std::invalid_argument(
        "MetricPoint " + std::to_string(p.id) + " has " +
        std::to_string(p.metrics.size()) + " metrics for " +
        std::to_string(objectives.size()) + " objectives");
  }
}

bool has_nan(const MetricPoint& p) {
  for (double m : p.metrics) {
    if (std::isnan(m)) return true;
  }
  return false;
}

bool metrics_equal(const MetricPoint& a, const MetricPoint& b) {
  return a.metrics == b.metrics;
}

void sort_by_id(std::vector<MetricPoint>& points) {
  std::sort(points.begin(), points.end(),
            [](const MetricPoint& a, const MetricPoint& b) {
              return a.id < b.id;
            });
}

// Drop NaN carriers and exact-duplicate metric vectors (keeping the lowest
// id), returning the survivors sorted by id — the canonical candidate set
// every frontier operation works over.
std::vector<MetricPoint> canonicalize(std::vector<MetricPoint> points,
                                      const std::vector<Objective>& objectives) {
  for (const MetricPoint& p : points) check_width(p, objectives);
  sort_by_id(points);
  std::vector<MetricPoint> out;
  for (MetricPoint& p : points) {
    if (has_nan(p)) continue;
    bool duplicate = false;
    for (const MetricPoint& kept : out) {
      if (metrics_equal(kept, p)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

bool dominates(const MetricPoint& a, const MetricPoint& b,
               const std::vector<Objective>& objectives) {
  check_width(a, objectives);
  check_width(b, objectives);
  if (has_nan(a)) return false;
  bool strictly_better = false;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const bool max = objectives[i].direction == Direction::kMaximize;
    const double va = max ? a.metrics[i] : -a.metrics[i];
    const double vb = max ? b.metrics[i] : -b.metrics[i];
    // A NaN in b makes vb unordered: treat b as beaten on that objective
    // (NaN points are always dominated, never dominating).
    if (std::isnan(vb)) {
      strictly_better = true;
      continue;
    }
    if (va < vb) return false;
    if (va > vb) strictly_better = true;
  }
  return strictly_better;
}

std::vector<MetricPoint> pareto_front(std::vector<MetricPoint> points,
                                      const std::vector<Objective>& objectives) {
  const std::vector<MetricPoint> candidates =
      canonicalize(std::move(points), objectives);
  std::vector<MetricPoint> front;
  for (const MetricPoint& p : candidates) {
    bool beaten = false;
    for (const MetricPoint& q : candidates) {
      if (q.id != p.id && dominates(q, p, objectives)) {
        beaten = true;
        break;
      }
    }
    if (!beaten) front.push_back(p);
  }
  return front;  // canonicalize already sorted by id
}

std::vector<std::vector<MetricPoint>> nondominated_layers(
    std::vector<MetricPoint> points, const std::vector<Objective>& objectives) {
  std::vector<MetricPoint> remaining =
      canonicalize(std::move(points), objectives);
  std::vector<std::vector<MetricPoint>> layers;
  while (!remaining.empty()) {
    std::vector<MetricPoint> layer = pareto_front(remaining, objectives);
    std::set<std::size_t> taken;
    for (const MetricPoint& p : layer) taken.insert(p.id);
    std::vector<MetricPoint> rest;
    for (MetricPoint& p : remaining) {
      if (taken.count(p.id) == 0) rest.push_back(std::move(p));
    }
    layers.push_back(std::move(layer));
    remaining = std::move(rest);
  }
  return layers;
}

}  // namespace h3dfact::dse
