#pragma once
// Limit-cycle detection for the deterministic resonator (Sec. II-B, Fig. 2b).
//
// The deterministic dynamics are a map on a finite state space, so any
// non-converging trajectory must eventually revisit a state and then cycle
// forever. We hash the joint factor state each iteration and detect the
// first revisit, reporting the cycle entry time and cycle length.

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace h3dfact::resonator {

/// Result of a detected revisit.
struct CycleInfo {
  std::size_t first_seen = 0;  ///< iteration at which the state first occurred
  std::size_t revisit = 0;     ///< iteration of the revisit
  [[nodiscard]] std::size_t length() const { return revisit - first_seen; }
};

/// Hash-based state-revisit detector.
class LimitCycleDetector {
 public:
  /// Record the joint-state hash for iteration `t`. Returns cycle info when
  /// the state occurred before; the loop stops a run at its first revisit.
  std::optional<CycleInfo> observe(std::uint64_t state_hash, std::size_t t);

 private:
  std::unordered_map<std::uint64_t, std::size_t> seen_;
};

}  // namespace h3dfact::resonator
