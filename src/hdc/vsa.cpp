#include "hdc/vsa.hpp"

#include <stdexcept>
#include <vector>

namespace h3dfact::hdc {

BipolarVector bundle(const std::vector<BipolarVector>& vs) {
  if (vs.empty()) throw std::invalid_argument("bundle of empty list");
  const std::size_t dim = vs.front().dim();
  std::vector<int> counts(dim, 0);
  for (const auto& v : vs) {
    if (v.dim() != dim) throw std::invalid_argument("bundle dim mismatch");
    for (std::size_t d = 0; d < dim; ++d) counts[d] += v.get(d);
  }
  return sign_of(counts);
}

}  // namespace h3dfact::hdc
