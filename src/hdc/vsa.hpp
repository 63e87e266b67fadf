#pragma once
// Vector-symbolic bundling (superposition) built on BipolarVector
// (Sec. II-A).

#include <vector>

#include "hdc/hypervector.hpp"

namespace h3dfact::hdc {

/// Majority-rule bundle [+] with deterministic (+1) tie-break.
BipolarVector bundle(const std::vector<BipolarVector>& vs);

}  // namespace h3dfact::hdc
