#pragma once
// CIM macro (Sec. III-A / IV-A): f subarrays of d×d differential RRAM cells
// plus the shared sensing path and per-column SAR ADCs, executing the two
// factorization MVM kernels for one codebook:
//
//   similarity  a = Xᵀ u : u (D = f·d bits) drives the word lines of f
//     256-row subarray slices; each slice's column currents are digitized by
//     4-bit ADCs and the slice codes are summed digitally (the "−1's counter
//     + adder" peripheral of Fig. 2a).
//
//   projection  y = X ã : the quantized similarity coefficients drive an
//     M-row array in the transpose orientation; the D output columns are
//     compared against VTGT = 0 to produce the 1-bit step-IV data of Fig. 3.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/crossbar.hpp"
#include "device/adc.hpp"
#include "device/sense_path.hpp"
#include "hdc/codebook.hpp"
#include "util/rng.hpp"

namespace h3dfact::cim {

/// Geometry + electrical configuration of one macro.
struct MacroConfig {
  std::size_t rows = 256;      ///< d, rows per RRAM subarray
  std::size_t subarrays = 4;   ///< f, subarrays per tier
  int adc_bits = 4;            ///< similarity read-out precision (Fig. 6a)
  double adc_clip_sigmas = 4.0;///< ADC full scale in units of √d counts
  device::RramParams rram = device::default_rram_40nm();
  device::AdcParams adc;       ///< instance params (full scale set internally)
  device::SensePathParams sense;
};

/// One codebook mapped onto RRAM CIM arrays, exposing the noisy similarity
/// and projection kernels.
class CimMacro {
 public:
  /// Program the macro with a codebook. The similarity orientation needs
  /// dim() == rows*subarrays; the projection orientation holds the codebook
  /// transposed (column-chunked into subarray-width slices).
  CimMacro(const hdc::Codebook& codebook, const MacroConfig& config,
           util::Rng& rng);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t codebook_size() const { return m_; }
  [[nodiscard]] const MacroConfig& config() const { return config_; }

  /// Noisy, ADC-quantized similarity read-out (counts are slice-code sums;
  /// scale-free with respect to the resonator's sign activation).
  [[nodiscard]] std::vector<int> similarity(const hdc::BipolarVector& u,
                                            util::Rng& rng) const;

  /// Noisy projection; returns ±1 per output dimension (comparator output).
  [[nodiscard]] std::vector<int> project(const std::vector<int>& coeffs,
                                         util::Rng& rng) const;

  /// Batched similarity read-out: one pass over the macro's subarray slices
  /// services the whole batch (each slice's word lines are re-driven per
  /// query while the slice stays selected). Every (slice, query) analog read
  /// draws its own device noise, so per-call stochasticity is preserved; a
  /// batch of one replays exactly the per-call draw sequence. M×B block out.
  [[nodiscard]] hdc::CoeffBlock similarity_batch(
      std::span<const hdc::BipolarVector> us, util::Rng& rng) const;

  /// Batched projection over an M×B item-major coefficient block; D×B ±1
  /// block out. Same single-macro-pass schedule and noise contract as
  /// similarity_batch.
  [[nodiscard]] hdc::CoeffBlock project_batch(const hdc::CoeffBlock& coeffs,
                                              util::Rng& rng) const;

  /// Set the operating temperature seen by the RRAM arrays (thermal model).
  void set_temperature(double celsius) { temperature_C_ = celsius; }
  [[nodiscard]] double temperature() const { return temperature_C_; }

  /// Retune the sensing threshold scale (testchip validation, Sec. V-D).
  void retune_vtgt(double factor);

  /// Totals for energy/throughput accounting.
  [[nodiscard]] std::uint64_t analog_reads() const;
  [[nodiscard]] std::uint64_t adc_conversions() const { return adc_conversions_; }
  [[nodiscard]] double program_energy_pJ() const;

 private:
  std::size_t dim_;
  std::size_t m_;
  MacroConfig config_;
  double vtgt_scale_ = 1.0;
  double temperature_C_ = 25.0;
  // Similarity orientation: one subarray slice per d rows of Xᵀ.
  std::vector<RramCrossbar> sim_slices_;
  // Projection orientation: X chunked into d-column groups; each group is a
  // crossbar with up-to-d rows (M) and d columns.
  std::vector<RramCrossbar> proj_slices_;
  std::vector<device::SarAdc> slice_adcs_;   // one ADC set per subarray
  device::SensePath sense_;
  mutable std::uint64_t adc_conversions_ = 0;
};

}  // namespace h3dfact::cim
