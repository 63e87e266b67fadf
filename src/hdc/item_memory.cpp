#include "hdc/item_memory.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace h3dfact::hdc {

std::size_t ItemMemory::add(std::string label, BipolarVector v) {
  if (v.dim() != dim_) throw std::invalid_argument("item dim mismatch");
  items_.push_back(std::move(v));
  labels_.push_back(std::move(label));
  return items_.size() - 1;
}

std::optional<std::size_t> ItemMemory::find(const std::string& label) const {
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return i;
  }
  return std::nullopt;
}

CleanupResult ItemMemory::cleanup(const BipolarVector& query) const {
  if (items_.empty()) throw std::logic_error("cleanup on empty item memory");
  CleanupResult best;
  best.dot = items_[0].dot(query);
  for (std::size_t i = 1; i < items_.size(); ++i) {
    long long d = items_[i].dot(query);
    if (d > best.dot) {
      best.dot = d;
      best.index = i;
    }
  }
  best.label = labels_[best.index];
  best.cosine = static_cast<double>(best.dot) / static_cast<double>(dim_);
  return best;
}

}  // namespace h3dfact::hdc
