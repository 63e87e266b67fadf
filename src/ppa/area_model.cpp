#include "ppa/area_model.hpp"

#include <algorithm>
#include <cmath>

#include "ppa/calib.hpp"

namespace h3dfact::ppa {

double AreaBreakdown::total_mm2() const {
  double t = 0.0;
  for (const auto& i : items) t += i.area_mm2;
  return t;
}

double AreaBreakdown::tier_mm2(int tier) const {
  double t = 0.0;
  for (const auto& i : items) {
    if (i.tier == tier) t += i.area_mm2;
  }
  return t;
}

double AreaBreakdown::footprint_mm2() const {
  double fp = 0.0;
  for (int t = 1; t <= tiers(); ++t) fp = std::max(fp, tier_mm2(t));
  return fp;
}

int AreaBreakdown::tiers() const {
  int t = 1;
  for (const auto& i : items) t = std::max(t, i.tier);
  return t;
}

double adc_area_um2(int bits, device::Node node) {
  const double bit_scale = std::pow(2.0, bits - 4);
  const double node_scale = device::tech(device::Node::k16nm).logic_density_rel /
                            device::tech(node).logic_density_rel;
  return calib::kAdc4bArea16nmUm2 * bit_scale * node_scale;
}

namespace {

double gate_area_mm2(double gates, device::Node node) {
  const double per_gate_um2 =
      calib::kGateArea40nmUm2 / device::tech(node).logic_density_rel;
  return gates * per_gate_um2 * 1e-6;
}

double sram_area_mm2(std::size_t bits, device::Node node) {
  constexpr double periphery = 1.30;
  return static_cast<double>(bits) * device::tech(node).sram_cell_um2 *
         periphery * 1e-6;
}

}  // namespace

AreaBreakdown compute_area(const arch::DesignSpec& d) {
  AreaBreakdown out;
  const auto& dims = d.dims;
  const double arrays = static_cast<double>(dims.arrays());
  const double cells_per_array = static_cast<double>(dims.cells_per_array());
  const std::size_t buffer_bits = dims.sram_buffer_kb * 1024 * 8;

  if (d.kind == arch::DesignKind::kSram2D) {
    // Digital SRAM-CIM: bitcell arrays + heavy accumulation logic, no ADC.
    out.items.push_back({"sram-cim arrays", 1,
                         sram_area_mm2(static_cast<std::size_t>(arrays * cells_per_array),
                                       d.digital_node)});
    out.items.push_back({"digital logic", 1,
                         gate_area_mm2(calib::kDigitalGatesSramCim, d.digital_node)});
    out.items.push_back({"sram buffer", 1, sram_area_mm2(buffer_bits, d.digital_node)});
    return out;
  }

  // RRAM cell matrices (differential pairs -> 2 cells per weight).
  const double array_mm2 =
      arrays * cells_per_array * 2.0 * calib::kRramCellUm2 * 1e-6;
  const double adc_mm2 = static_cast<double>(d.adc_count) *
                         adc_area_um2(dims.adc_bits, d.periphery_node) * 1e-6;
  const double logic_mm2 = gate_area_mm2(calib::kDigitalGatesRram, d.digital_node);
  const double buf_mm2 = sram_area_mm2(buffer_bits, d.digital_node);

  if (d.kind == arch::DesignKind::kHybrid2D) {
    // Monolithic 40 nm: every array carries its full HV+LV periphery.
    out.items.push_back({"rram arrays", 1, array_mm2});
    out.items.push_back({"hv periphery", 1, arrays * calib::kRramHvPeriphPerArrayMm2});
    out.items.push_back({"lv periphery", 1, arrays * calib::kRramLvPeriphPerArrayMm2});
    out.items.push_back({"adc", 1, adc_mm2});
    out.items.push_back({"digital logic", 1, logic_mm2});
    out.items.push_back({"sram buffer", 1, buf_mm2});
    return out;
  }

  // ---- 3-tier H3D ----
  // RRAM tiers (3 = similarity top, 2 = projection middle) keep only the WL
  // level shifters / isolation (HV retained fraction); everything else is a
  // single *shared* periphery set in tier-1 at the advanced node.
  const double per_tier_arrays = arrays / 2.0;  // 4 subarrays per RRAM tier
  const double tier_array_mm2 = array_mm2 / 2.0;
  const double retained_hv = per_tier_arrays * calib::kRramHvPeriphPerArrayMm2 *
                             calib::kH3dHvRetainedFrac;
  out.items.push_back({"rram arrays", 3, tier_array_mm2});
  out.items.push_back({"wl shifters/iso", 3, retained_hv});
  out.items.push_back({"rram arrays", 2, tier_array_mm2});
  out.items.push_back({"wl shifters/iso", 2, retained_hv});

  // TSV keep-out: the F2F interface (3–2) uses hybrid bonds; the F2B TSVs
  // penetrate tier-2 on their way to tier-1.
  out.items.push_back({"tsv keep-out", 2,
                       static_cast<double>(d.tsv_count) * calib::kTsvKeepoutUm2 * 1e-6});

  // Tier-1: one shared LV periphery set (for f subarrays, used by both RRAM
  // tiers in turn), ADCs, buffer, digital logic — all at 16 nm.
  const double shared_lv =
      per_tier_arrays * calib::kRramLvPeriphPerArrayMm2 *
      device::tech(device::Node::k40nm).logic_density_rel /
      device::tech(d.periphery_node).logic_density_rel;
  out.items.push_back({"shared lv periphery", 1, shared_lv});
  out.items.push_back({"adc", 1, adc_mm2});
  out.items.push_back({"digital logic", 1, logic_mm2});
  out.items.push_back({"sram buffer", 1, buf_mm2});
  return out;
}

}  // namespace h3dfact::ppa
