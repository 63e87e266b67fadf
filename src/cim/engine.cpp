#include "cim/engine.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

namespace h3dfact::cim {

CimMvmEngine::CimMvmEngine(std::shared_ptr<const hdc::CodebookSet> set,
                           const MacroConfig& config, util::Rng& rng)
    : set_(std::move(set)) {
  if (!set_ || set_->factors() == 0) {
    throw std::invalid_argument("CimMvmEngine needs a non-empty codebook set");
  }
  macros_.reserve(set_->factors());
  for (std::size_t f = 0; f < set_->factors(); ++f) {
    macros_.emplace_back(set_->book(f), config, rng);
  }
}

std::vector<int> CimMvmEngine::similarity(std::size_t factor,
                                          const hdc::BipolarVector& u,
                                          util::Rng& rng) {
  return macros_.at(factor).similarity(u, rng);
}

std::vector<int> CimMvmEngine::project(std::size_t factor,
                                       const std::vector<int>& coeffs,
                                       util::Rng& rng) {
  return macros_.at(factor).project(coeffs, rng);
}

hdc::CoeffBlock CimMvmEngine::similarity_batch(
    std::size_t factor, std::span<const hdc::BipolarVector> us,
    util::Rng& rng) {
  return macros_.at(factor).similarity_batch(us, rng);
}

hdc::CoeffBlock CimMvmEngine::project_batch(std::size_t factor,
                                            const hdc::CoeffBlock& coeffs,
                                            util::Rng& rng) {
  return macros_.at(factor).project_batch(coeffs, rng);
}

void CimMvmEngine::set_temperature(double celsius) {
  for (auto& m : macros_) m.set_temperature(celsius);
}

void CimMvmEngine::retune_vtgt(double factor) {
  for (auto& m : macros_) m.retune_vtgt(factor);
}

}  // namespace h3dfact::cim
