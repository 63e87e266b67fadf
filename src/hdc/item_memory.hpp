#pragma once
// Associative cleanup memory: maps a noisy hypervector back to the closest
// stored item. Used by the perception pipeline after factorization and by
// the examples.

#include <optional>
#include <string>
#include <vector>

#include "hdc/hypervector.hpp"

namespace h3dfact::hdc {

/// Query result: best-matching item plus the match statistics.
struct CleanupResult {
  std::size_t index = 0;
  std::string label;
  long long dot = 0;
  double cosine = 0.0;
};

/// Labelled item store with nearest-neighbour (max dot product) lookup.
class ItemMemory {
 public:
  explicit ItemMemory(std::size_t dim) : dim_(dim) {}

  /// Store an item; returns its index.
  std::size_t add(std::string label, BipolarVector v);

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const BipolarVector& vector(std::size_t i) const { return items_[i]; }
  [[nodiscard]] const std::string& label(std::size_t i) const { return labels_[i]; }

  /// Index of a stored label, if present.
  [[nodiscard]] std::optional<std::size_t> find(const std::string& label) const;

  /// Nearest stored item to the query.
  [[nodiscard]] CleanupResult cleanup(const BipolarVector& query) const;

 private:
  std::size_t dim_;
  std::vector<BipolarVector> items_;
  std::vector<std::string> labels_;
};

}  // namespace h3dfact::hdc
