#include "ppa/timing_model.hpp"

#include "arch/interconnect.hpp"
#include "arch/scheduler.hpp"
#include "ppa/calib.hpp"

namespace h3dfact::ppa {

double clock_MHz(const arch::DesignSpec& design) {
  if (design.kind != arch::DesignKind::kH3dThreeTier) return calib::kBaseClockMHz;
  arch::TsvModel tsv;
  return calib::kBaseClockMHz * tsv.frequency_derate();
}

TimingResult compute_timing(const arch::DesignSpec& design) {
  TimingResult r;
  r.frequency_MHz = clock_MHz(design);
  r.mvm_latency_cycles =
      static_cast<double>(arch::ScheduleTiming{}.mvm_pass_cycles());

  const auto& dims = design.dims;
  // All kernels' arrays compute concurrently at peak (the batched schedule
  // keeps both RRAM tiers utilized back-to-back; the 2D designs lay the
  // same arrays side by side).
  const double concurrent_arrays = static_cast<double>(dims.arrays());
  const double macs_per_array = static_cast<double>(dims.cells_per_array());
  r.ops_per_cycle =
      2.0 * macs_per_array * concurrent_arrays / r.mvm_latency_cycles;
  r.tops = r.ops_per_cycle * r.frequency_MHz * 1e6 / 1e12;
  return r;
}

}  // namespace h3dfact::ppa
