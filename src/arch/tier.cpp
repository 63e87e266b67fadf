#include "arch/tier.hpp"

#include <stdexcept>
namespace h3dfact::arch {

TierActivationController::TierActivationController(Tier& similarity_tier,
                                                   Tier& projection_tier)
    : sim_(&similarity_tier), proj_(&projection_tier) {
  if (sim_->role() != TierRole::kSimilarity ||
      proj_->role() != TierRole::kProjection) {
    throw std::invalid_argument("controller needs one similarity and one projection tier");
  }
}

bool TierActivationController::activate(TierRole role) {
  Tier* want = nullptr;
  Tier* other = nullptr;
  switch (role) {
    case TierRole::kSimilarity: want = sim_; other = proj_; break;
    case TierRole::kProjection: want = proj_; other = sim_; break;
    case TierRole::kDigital:
      throw std::invalid_argument("digital tier is always on; cannot 'activate' it");
  }
  if (want->power() == PowerState::kActive) return false;
  if (other->power() == PowerState::kActive) other->set_power(PowerState::kStandby);
  want->set_power(PowerState::kActive);
  return true;
}

TierRole TierActivationController::active() const {
  if (sim_->power() == PowerState::kActive) return TierRole::kSimilarity;
  if (proj_->power() == PowerState::kActive) return TierRole::kProjection;
  return TierRole::kDigital;
}

void TierActivationController::park() {
  for (Tier* t : {sim_, proj_}) {
    if (t->power() == PowerState::kActive) t->set_power(PowerState::kStandby);
  }
}

}  // namespace h3dfact::arch
