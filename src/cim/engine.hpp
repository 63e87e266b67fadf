#pragma once
// Hardware-in-the-loop MVM engine: routes the resonator's similarity and
// projection kernels through the modelled RRAM CIM macros, one macro per
// factor codebook. Device stochasticity then *is* the similarity channel —
// no synthetic noise injection is used on top.

#include <memory>
#include <vector>

#include "cim/macro.hpp"
#include "resonator/resonator.hpp"

namespace h3dfact::cim {

/// resonator::MvmEngine implementation over CIM macros.
class CimMvmEngine final : public resonator::MvmEngine {
 public:
  /// Programs one macro per factor of `set`.
  CimMvmEngine(std::shared_ptr<const hdc::CodebookSet> set,
               const MacroConfig& config, util::Rng& rng);

  [[nodiscard]] std::vector<int> similarity(std::size_t factor,
                                            const hdc::BipolarVector& u,
                                            util::Rng& rng) override;
  [[nodiscard]] std::vector<int> project(std::size_t factor,
                                         const std::vector<int>& coeffs,
                                         util::Rng& rng) override;

  /// Batched kernels: one pass over the factor's macro per batch, with every
  /// analog read drawing its own device noise (see CimMacro).
  [[nodiscard]] hdc::CoeffBlock similarity_batch(
      std::size_t factor, std::span<const hdc::BipolarVector> us,
      util::Rng& rng) override;
  [[nodiscard]] hdc::CoeffBlock project_batch(std::size_t factor,
                                              const hdc::CoeffBlock& coeffs,
                                              util::Rng& rng) override;

  [[nodiscard]] std::size_t factors() const { return macros_.size(); }
  [[nodiscard]] CimMacro& macro(std::size_t f) { return macros_[f]; }
  [[nodiscard]] const CimMacro& macro(std::size_t f) const { return macros_[f]; }

  /// Propagate an operating temperature to every macro.
  void set_temperature(double celsius);

  /// Retune every macro's sensing threshold (Sec. V-D).
  void retune_vtgt(double factor);

 private:
  std::shared_ptr<const hdc::CodebookSet> set_;
  std::vector<CimMacro> macros_;
};

}  // namespace h3dfact::cim
