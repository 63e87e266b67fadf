#include "resonator/limit_cycle.hpp"

#include <cstdint>
#include <optional>

namespace h3dfact::resonator {

std::optional<CycleInfo> LimitCycleDetector::observe(std::uint64_t state_hash,
                                                     std::size_t t) {
  const auto [it, inserted] = seen_.emplace(state_hash, t);
  if (inserted) return std::nullopt;
  return CycleInfo{it->second, t};
}

}  // namespace h3dfact::resonator
