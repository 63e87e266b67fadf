#pragma once
// Tier abstraction for the 3-tier stack (Sec. IV-A, Fig. 3).
//
// Tier-3 (top, 40 nm RRAM) computes similarity; tier-2 (middle, 40 nm RRAM)
// computes projection; tier-1 (bottom, 16 nm digital) holds the shared RRAM
// peripherals, ADCs, SRAM buffers, XNOR unbinding and control. Because both
// RRAM tiers share one set of peripherals through the same vertical
// interconnects, only one RRAM tier may be active at a time; WL level
// shifters power-gate the inactive tier (Fig. 3, red blocks).

#include <stdexcept>
#include <string>

namespace h3dfact::arch {

/// What a tier computes.
enum class TierRole {
  kSimilarity,  ///< tier-3: a = Xᵀu on RRAM CIM
  kProjection,  ///< tier-2: y = X ã on RRAM CIM
  kDigital,     ///< tier-1: periphery, ADC, SRAM, XNOR, control
};

/// Power state of a tier (Sec. III-A power-off modes).
enum class PowerState {
  kActive,    ///< WL level shifters on, arrays conducting
  kStandby,   ///< retains state, WL shifters gated, no column current
  kShutdown,  ///< full power-off
};

/// One tier of the stack.
class Tier {
 public:
  Tier(std::string name, TierRole role)
      : name_(std::move(name)), role_(role) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TierRole role() const { return role_; }
  [[nodiscard]] PowerState power() const { return power_; }
  [[nodiscard]] bool is_rram() const { return role_ != TierRole::kDigital; }

  void set_power(PowerState s) { power_ = s; }

 private:
  std::string name_;
  TierRole role_;
  PowerState power_ = PowerState::kStandby;
};

/// Enforces the single-active-RRAM-tier invariant of the shared-periphery
/// design: activating one RRAM tier forces the other to standby.
class TierActivationController {
 public:
  TierActivationController(Tier& similarity_tier, Tier& projection_tier);

  /// Activate the requested RRAM tier (deactivating its sibling). Returns
  /// true if a transition actually happened (i.e. the tier was not already
  /// active) — transitions cost time/energy in the scheduler.
  bool activate(TierRole role);

  /// Current active RRAM tier, or kDigital if both are gated.
  [[nodiscard]] TierRole active() const;

  /// Put both RRAM tiers into standby (between batches).
  void park();

 private:
  Tier* sim_;
  Tier* proj_;
};

}  // namespace h3dfact::arch
