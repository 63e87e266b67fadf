#pragma once
// The batched factorizer is the resonator network itself: its batch run()
// steps many problems in lockstep through one MVM engine (see
// ResonatorNetwork). Only perfbench still names the alias; it goes when
// the benchmark changes with it.

#include "resonator/resonator.hpp"

namespace h3dfact::resonator {

using BatchedFactorizer = ResonatorNetwork;

}  // namespace h3dfact::resonator
