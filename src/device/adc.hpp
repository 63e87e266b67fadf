#pragma once
// SAR ADC model (Sec. IV-B): each RRAM column output is digitized by a 4-bit
// SAR ADC in tier-1. Captures the transfer function (offset/gain error +
// quantization); its area and energy are ppa::adc_area_um2 /
// ppa::adc_energy_pJ, its conversion latency arch::ScheduleTiming::adc_cycles.

#include "util/rng.hpp"

namespace h3dfact::device {

/// Static configuration of one SAR ADC instance.
struct AdcParams {
  int bits = 4;
  double full_scale_uA = 40.0;  ///< differential input current at full scale
  double offset_sigma_frac = 0.01;  ///< per-instance offset, fraction of FS
  double gain_sigma_frac = 0.01;    ///< per-instance gain error sigma
};

/// One SAR ADC instance with calibrated-at-instantiation offset/gain error.
class SarAdc {
 public:
  /// Instance-level mismatch is drawn once at construction (per-die spread).
  SarAdc(const AdcParams& params, util::Rng& rng);

  [[nodiscard]] int bits() const { return params_.bits; }
  [[nodiscard]] int max_code() const { return (1 << (params_.bits - 1)) - 1; }

  /// Convert a (signed, differential) input current to a signed code in
  /// [−max_code, max_code].
  [[nodiscard]] int convert(double input_uA) const;

  [[nodiscard]] double offset_uA() const { return offset_uA_; }
  [[nodiscard]] double gain() const { return gain_; }

 private:
  AdcParams params_;
  double offset_uA_;
  double gain_;
};

}  // namespace h3dfact::device
