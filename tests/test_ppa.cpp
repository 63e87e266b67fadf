// Tests for the PPA models: area breakdowns against Table III, timing and
// frequency derate, energy efficiency ordering, floorplans and power maps.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <stdexcept>

#include "arch/scheduler.hpp"
#include "ppa/area_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/floorplan.hpp"
#include "ppa/report.hpp"
#include "ppa/timing_model.hpp"

namespace {

using namespace h3dfact;
using namespace h3dfact::ppa;
using arch::DesignKind;

TEST(AreaModel, Table3AreasWithinTolerance) {
  auto rows = compute_table3();
  auto paper = table3_paper_values();
  ASSERT_EQ(rows.size(), paper.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double got = rows[i].area.total_mm2();
    EXPECT_NEAR(got, paper[i].area_mm2, paper[i].area_mm2 * 0.15)
        << paper[i].name;
  }
}

TEST(AreaModel, H3dSmallestTotalSilicon) {
  auto rows = compute_table3();
  const double sram = rows[0].area.total_mm2();
  const double hybrid = rows[1].area.total_mm2();
  const double h3d = rows[2].area.total_mm2();
  EXPECT_LT(h3d, sram);
  EXPECT_LT(h3d, hybrid);
  // Paper: 1.25x vs SRAM, 5.97x vs hybrid.
  EXPECT_NEAR(sram / h3d, 1.25, 0.25);
  EXPECT_NEAR(hybrid / h3d, 5.97, 1.2);
}

TEST(AreaModel, H3dTiersAreaBalanced) {
  auto d = arch::make_design(DesignKind::kH3dThreeTier);
  auto area = compute_area(d);
  EXPECT_EQ(area.tiers(), 3);
  const double t1 = area.tier_mm2(1);
  const double t2 = area.tier_mm2(2);
  const double t3 = area.tier_mm2(3);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t2, 0.0);
  EXPECT_GT(t3, 0.0);
  // No tier dominates by more than ~4x (Sec. IV-C area balance).
  const double mx = std::max({t1, t2, t3});
  const double mn = std::min({t1, t2, t3});
  EXPECT_LT(mx / mn, 4.0);
  EXPECT_DOUBLE_EQ(area.footprint_mm2(), mx);
}

TEST(AreaModel, TwoDDesignsSingleTier) {
  for (auto kind : {DesignKind::kSram2D, DesignKind::kHybrid2D}) {
    auto area = compute_area(arch::make_design(kind));
    EXPECT_EQ(area.tiers(), 1);
    EXPECT_DOUBLE_EQ(area.footprint_mm2(), area.total_mm2());
  }
}

TEST(AreaModel, AdcAreaScaling) {
  EXPECT_GT(adc_area_um2(8, device::Node::k16nm), adc_area_um2(4, device::Node::k16nm));
  EXPECT_GT(adc_area_um2(4, device::Node::k40nm), adc_area_um2(4, device::Node::k16nm));
}

TEST(TimingModel, FrequenciesMatchTable3) {
  auto rows = compute_table3();
  EXPECT_NEAR(rows[0].timing.frequency_MHz, 200.0, 0.1);
  EXPECT_NEAR(rows[1].timing.frequency_MHz, 200.0, 0.1);
  EXPECT_NEAR(rows[2].timing.frequency_MHz, 185.0, 4.0);
}

TEST(TimingModel, ThroughputMatchesTable3) {
  auto rows = compute_table3();
  EXPECT_NEAR(rows[0].timing.tops, 1.52, 0.08);
  EXPECT_NEAR(rows[1].timing.tops, 1.52, 0.08);
  EXPECT_NEAR(rows[2].timing.tops, 1.41, 0.08);
  // The throughput's MVM latency is the batch schedule's, 138 cycles.
  static_assert(arch::ScheduleTiming{}.mvm_pass_cycles() == 138);
  for (const auto& row : rows) {
    EXPECT_EQ(row.timing.mvm_latency_cycles,
              static_cast<double>(arch::ScheduleTiming{}.mvm_pass_cycles()));
  }
}

TEST(TimingModel, ComputeDensityHeadline) {
  auto rows = compute_table3();
  const double sram = rows[0].compute_density_tops_mm2();
  const double hybrid = rows[1].compute_density_tops_mm2();
  const double h3d = rows[2].compute_density_tops_mm2();
  // Paper headline: 5.5x density vs hybrid 2D; also above the SRAM design.
  EXPECT_NEAR(h3d / hybrid, 5.5, 1.0);
  EXPECT_GT(h3d, sram);
}

TEST(EnergyModel, EfficiencyMatchesTable3) {
  auto rows = compute_table3();
  auto paper = table3_paper_values();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR(rows[i].energy.tops_per_watt, paper[i].tops_per_watt,
                paper[i].tops_per_watt * 0.15)
        << paper[i].name;
  }
}

TEST(EnergyModel, RramDesignsBeatSramEfficiency) {
  auto rows = compute_table3();
  EXPECT_GT(rows[1].energy.tops_per_watt, rows[0].energy.tops_per_watt);
  EXPECT_GT(rows[2].energy.tops_per_watt, rows[0].energy.tops_per_watt);
}

TEST(EnergyModel, PowerConsistent) {
  auto rows = compute_table3();
  for (const auto& r : rows) {
    // power = tops / (tops/W)
    EXPECT_NEAR(r.energy.power_mW,
                r.timing.tops / r.energy.tops_per_watt * 1e3, 0.5);
    EXPECT_GT(r.energy.power_mW, 5.0);
    EXPECT_LT(r.energy.power_mW, 100.0);
  }
}

TEST(EnergyModel, AdcEnergyScaling) {
  EXPECT_GT(adc_energy_pJ(8, device::Node::k16nm), adc_energy_pJ(4, device::Node::k16nm));
  EXPECT_GT(adc_energy_pJ(4, device::Node::k40nm), adc_energy_pJ(4, device::Node::k16nm));
}

TEST(Report, AccuraciesForwarded) {
  auto rows = compute_table3({}, {95.8, 99.3, 99.3});
  EXPECT_DOUBLE_EQ(rows[0].accuracy, 95.8);
  EXPECT_DOUBLE_EQ(rows[2].accuracy, 99.3);
  EXPECT_THROW(compute_table3({}, {1.0}), std::invalid_argument);
}

TEST(Floorplan, TiersCoverDesign) {
  auto d = arch::make_design(DesignKind::kH3dThreeTier);
  auto fp = build_floorplan(d);
  ASSERT_EQ(fp.size(), 3u);
  double power = 0.0;
  for (const auto& t : fp) {
    EXPECT_GT(t.die_w_mm, 0.0);
    EXPECT_FALSE(t.rects.empty());
    for (const auto& r : t.rects) {
      // Components stay inside the die outline.
      EXPECT_GE(r.x_mm, -1e-9);
      EXPECT_GE(r.y_mm, -1e-9);
      EXPECT_LE(r.x_mm + r.w_mm, t.die_w_mm + 1e-9);
      EXPECT_LE(r.y_mm + r.h_mm, t.die_h_mm + 1e-6);
    }
    power += t.total_power_W();
  }
  const auto energy = compute_energy(d);
  EXPECT_NEAR(power * 1e3, energy.power_mW, energy.power_mW * 0.01);
}

TEST(Floorplan, PowerGridConservesPower) {
  auto d = arch::make_design(DesignKind::kH3dThreeTier);
  auto fp = build_floorplan(d);
  for (const auto& t : fp) {
    auto grid = t.power_grid(16, 16);
    double sum = 0.0;
    for (double w : grid) sum += w;
    EXPECT_NEAR(sum, t.total_power_W(), t.total_power_W() * 0.02 + 1e-9);
  }
}

TEST(Floorplan, SouthernCellsHotter) {
  // Power-dense blocks are placed toward the south edge (Fig. 5 gradient).
  auto d = arch::make_design(DesignKind::kH3dThreeTier);
  auto fp = build_floorplan(d);
  const auto& tier1 = fp.front();  // digital tier has ADCs in the south
  auto grid = tier1.power_grid(8, 8);
  double south = 0.0, north = 0.0;
  for (std::size_t iy = 0; iy < 4; ++iy) {
    for (std::size_t ix = 0; ix < 8; ++ix) {
      south += grid[iy * 8 + ix];
      north += grid[(iy + 4) * 8 + ix];
    }
  }
  EXPECT_GT(south, north);
}

TEST(Floorplan, TwoDDesignSingleTier) {
  auto fp = build_floorplan(arch::make_design(DesignKind::kHybrid2D));
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_GT(fp[0].total_power_W(), 0.0);
}

// Geometry sweep: the area model stays monotone in array count.
class GeometrySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeometrySweep, AreaGrowsWithSubarrays) {
  arch::FactorizerDims small;
  small.subarrays = 2;
  arch::FactorizerDims big;
  big.subarrays = GetParam();
  auto a_small =
      compute_area(arch::make_design(DesignKind::kH3dThreeTier, small));
  auto a_big = compute_area(arch::make_design(DesignKind::kH3dThreeTier, big));
  EXPECT_GT(a_big.total_mm2(), a_small.total_mm2());
}

INSTANTIATE_TEST_SUITE_P(Subarrays, GeometrySweep, ::testing::Values(4, 8, 16));

}  // namespace
