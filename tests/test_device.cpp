// Tests for the device models: RRAM cell statistics, testchip noise tables,
// SAR ADC transfer function, sense path, SRAM buffer accounting.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <stdexcept>

#include "device/adc.hpp"
#include "device/pcm_cell.hpp"
#include "device/rram_cell.hpp"
#include "device/rram_chip_data.hpp"
#include "device/sense_path.hpp"
#include "device/sram.hpp"
#include "device/tech_node.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace h3dfact;
using device::Node;
using device::RramCell;
using device::RramParams;
using util::Rng;

TEST(TechNode, KnownNodes) {
  EXPECT_DOUBLE_EQ(device::tech(Node::k40nm).feature_nm, 40.0);
  EXPECT_DOUBLE_EQ(device::tech(Node::k16nm).feature_nm, 16.0);
  EXPECT_EQ(device::node_name(Node::k40nm), "40 nm");
  EXPECT_EQ(device::node_name(Node::k16nm), "16 nm");
}

TEST(TechNode, AdvancedNodeDenserAndGreener) {
  const auto& n40 = device::tech(Node::k40nm);
  const auto& n16 = device::tech(Node::k16nm);
  EXPECT_GT(n16.logic_density_rel, n40.logic_density_rel);
  EXPECT_LT(n16.energy_per_gate_rel, n40.energy_per_gate_rel);
  EXPECT_LT(n16.sram_cell_um2, n40.sram_cell_um2);
  // Only the legacy node offers embedded RRAM (the H3D design motivation).
  EXPECT_GT(n40.supports_rram, 0.0);
  EXPECT_DOUBLE_EQ(n16.supports_rram, 0.0);
}

TEST(RramCell, ProgramSetsState) {
  Rng rng(1);
  RramParams p = device::default_rram_40nm();
  RramCell cell(p);
  cell.program(true, rng);
  EXPECT_TRUE(cell.is_on());
  EXPECT_GT(cell.conductance_uS(), p.g_off_uS * 3);
  cell.program(false, rng);
  EXPECT_FALSE(cell.is_on());
  EXPECT_LT(cell.conductance_uS(), p.g_on_uS / 3);
}

TEST(RramCell, ProgrammingVariationMatchesSigma) {
  Rng rng(2);
  RramParams p = device::default_rram_40nm();
  util::RunningStats st;
  for (int i = 0; i < 20000; ++i) {
    RramCell cell(p);
    cell.program(true, rng);
    st.add(std::log(cell.conductance_uS() / p.g_on_uS));
  }
  EXPECT_NEAR(st.stddev(), p.prog_sigma, 0.005);
  // Mean conductance is kept at the target level.
  EXPECT_NEAR(st.mean(), -0.5 * p.prog_sigma * p.prog_sigma, 0.005);
}

TEST(RramCell, ReadNoiseHasConfiguredSigma) {
  Rng rng(3);
  RramParams p = device::default_rram_40nm();
  RramCell cell(p);
  cell.program(true, rng);
  util::RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(cell.read_uS(rng));
  EXPECT_NEAR(st.stddev(), p.read_noise_frac * p.g_on_uS, 0.1);
  EXPECT_NEAR(st.mean(), cell.conductance_uS(), 0.1);
}

TEST(RramCell, RetentionDegradesAboveKnee) {
  RramParams p = device::default_rram_40nm();
  EXPECT_DOUBLE_EQ(RramCell::retention_factor(p, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(RramCell::retention_factor(p, 100.0), 1.0);
  EXPECT_LT(RramCell::retention_factor(p, 120.0), 1.0);
  EXPECT_GE(RramCell::retention_factor(p, 500.0), 0.1);  // clamped
}

TEST(RramCell, ReadCurrentScalesWithVoltage) {
  Rng rng(5);
  RramParams p = device::default_rram_40nm();
  p.read_noise_frac = 0.0;
  RramCell cell(p);
  cell.program(true, rng);
  EXPECT_NEAR(cell.read_current_uA(rng), cell.conductance_uS() * p.v_read, 1e-9);
}

TEST(TestchipModel, TableCoversLevelRange) {
  Rng rng(10);
  device::TestchipNoiseModel chip(64, device::default_rram_40nm(), 200, rng);
  ASSERT_GE(chip.table().size(), 5u);
  EXPECT_LE(chip.table().front().level, -60);
  EXPECT_GE(chip.table().back().level, 60);
}

TEST(TestchipModel, ReadoutIsMonotoneInLevel) {
  Rng rng(11);
  device::TestchipNoiseModel chip(64, device::default_rram_40nm(), 300, rng);
  const auto& t = chip.table();
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t[i].mean, t[i - 1].mean);
  }
}

TEST(TestchipModel, GainNearUnityAndSigmaPositive) {
  Rng rng(12);
  device::TestchipNoiseModel chip(64, device::default_rram_40nm(), 300, rng);
  EXPECT_NEAR(chip.gain(), 1.0, 0.1);
  EXPECT_GT(chip.aggregate_sigma(), 0.0);
  EXPECT_NEAR(chip.vtgt_retune_factor(), 1.0 / chip.gain(), 1e-12);
}

TEST(TestchipModel, InterpolationBracketsTable) {
  Rng rng(13);
  device::TestchipNoiseModel chip(32, device::default_rram_40nm(), 200, rng);
  const auto& t = chip.table();
  EXPECT_DOUBLE_EQ(chip.mean_at(t.front().level - 100), t.front().mean);
  EXPECT_DOUBLE_EQ(chip.mean_at(t.back().level + 100), t.back().mean);
  // Midpoint between two adjacent levels interpolates between their means.
  const double mid = chip.mean_at((t[0].level + t[1].level) / 2);
  EXPECT_GE(mid, std::min(t[0].mean, t[1].mean));
  EXPECT_LE(mid, std::max(t[0].mean, t[1].mean));
}

TEST(TestchipModel, MoreNoisyCellsMoreAggregateSigma) {
  Rng rng(14);
  RramParams quiet = device::default_rram_40nm();
  quiet.read_noise_frac = 0.01;
  RramParams loud = quiet;
  loud.read_noise_frac = 0.08;
  device::TestchipNoiseModel a(64, quiet, 300, rng);
  device::TestchipNoiseModel b(64, loud, 300, rng);
  EXPECT_GT(b.aggregate_sigma(), a.aggregate_sigma());
}

TEST(SarAdc, MidScaleCodes) {
  Rng rng(20);
  device::AdcParams p;
  p.bits = 4;
  p.full_scale_uA = 70.0;
  p.offset_sigma_frac = 0.0;
  p.gain_sigma_frac = 0.0;
  device::SarAdc adc(p, rng);
  EXPECT_EQ(adc.max_code(), 7);
  EXPECT_EQ(adc.convert(0.0), 0);
  EXPECT_EQ(adc.convert(10.0), 1);
  EXPECT_EQ(adc.convert(-35.0), -4);
  EXPECT_EQ(adc.convert(1e6), 7);
  EXPECT_EQ(adc.convert(-1e6), -7);
}

TEST(SarAdc, InstanceMismatchIsStatic) {
  Rng rng(21);
  device::AdcParams p;
  p.offset_sigma_frac = 0.05;
  device::SarAdc adc(p, rng);
  // Same input always converts to the same code (mismatch drawn once).
  const int c = adc.convert(13.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(adc.convert(13.0), c);
}

TEST(SarAdc, RejectsBadParams) {
  Rng rng(23);
  device::AdcParams p;
  p.bits = 0;
  EXPECT_THROW(device::SarAdc(p, rng), std::invalid_argument);
  p.bits = 4;
  p.full_scale_uA = -1.0;
  EXPECT_THROW(device::SarAdc(p, rng), std::invalid_argument);
}

TEST(SensePath, LinearInMidRangeClipsAtHeadroom) {
  Rng rng(30);
  device::SensePathParams p;
  p.pvt_gain_sigma = 0.0;
  device::SensePath sp(p, rng);
  const double v1 = sp.sense_V(10.0);
  const double v2 = sp.sense_V(20.0);
  EXPECT_NEAR(v2, 2.0 * v1, 1e-9);
  EXPECT_DOUBLE_EQ(sp.sense_V(1e9), p.vsense_max_V);
  EXPECT_DOUBLE_EQ(sp.sense_V(-1e9), -p.vsense_max_V);
}

TEST(SensePath, VtgtRetuneClampsToHeadroom) {
  Rng rng(31);
  device::SensePathParams p;
  device::SensePath sp(p, rng);
  sp.retune_vtgt(10.0);
  EXPECT_LE(sp.params().vtgt_V, p.vsense_max_V);
  sp.retune_vtgt(0.3);
  EXPECT_DOUBLE_EQ(sp.params().vtgt_V, 0.3);
}

TEST(SensePath, VtgtCurrentConsistentWithTransfer) {
  Rng rng(32);
  device::SensePathParams p;
  p.pvt_gain_sigma = 0.0;
  device::SensePath sp(p, rng);
  EXPECT_NEAR(sp.sense_V(sp.vtgt_current_uA()), p.vtgt_V, 1e-9);
}

TEST(SensePath, RejectsBadConfig) {
  Rng rng(33);
  device::SensePathParams p;
  p.rsense_kohm = 0.0;
  EXPECT_THROW(device::SensePath(p, rng), std::invalid_argument);
  p.rsense_kohm = 10.0;
  p.vtgt_V = 2.0;  // beyond headroom
  EXPECT_THROW(device::SensePath(p, rng), std::invalid_argument);
}

TEST(SramBuffer, AllocateReleaseOccupancy) {
  device::SramBuffer buf({1024, 8});
  EXPECT_EQ(buf.capacity_bits(), 8192u);
  buf.allocate(4096);
  EXPECT_DOUBLE_EQ(buf.occupancy(), 0.5);
  buf.release(4096);
  EXPECT_EQ(buf.used_bits(), 0u);
}

TEST(SramBuffer, OverflowAndUnderflowThrow) {
  device::SramBuffer buf({16, 8});
  EXPECT_THROW(buf.allocate(129), std::overflow_error);
  buf.allocate(128);
  EXPECT_THROW(buf.allocate(1), std::overflow_error);
  EXPECT_THROW(buf.release(129), std::underflow_error);
}

TEST(PcmCell, ProgramSetsStateAndDriftExponent) {
  Rng rng(60);
  auto p = device::default_pcm();
  device::PcmCell cell(p);
  cell.program(true, rng);
  EXPECT_TRUE(cell.is_on());
  EXPECT_DOUBLE_EQ(cell.drift_nu(), 0.0);  // crystalline: no drift
  cell.program(false, rng);
  EXPECT_FALSE(cell.is_on());
  EXPECT_GT(cell.drift_nu(), 0.0);
}

TEST(PcmCell, ResetStateDriftsDownward) {
  Rng rng(61);
  auto p = device::default_pcm();
  device::PcmCell cell(p);
  cell.program(false, rng);
  const double g1 = cell.conductance_uS(1.0);
  const double g1000 = cell.conductance_uS(1000.0);
  EXPECT_LT(g1000, g1);
  // Power-law check: G(t) = G(t0) (t/t0)^-nu.
  EXPECT_NEAR(g1000, g1 * std::pow(1000.0, -cell.drift_nu()), g1 * 1e-9);
}

TEST(PcmCell, SetStateStable) {
  Rng rng(62);
  auto p = device::default_pcm();
  device::PcmCell cell(p);
  cell.program(true, rng);
  EXPECT_NEAR(cell.conductance_uS(1.0), cell.conductance_uS(1e6), 1e-9);
}

TEST(PcmCell, ReadNoiseNonNegativeConductance) {
  Rng rng(63);
  auto p = device::default_pcm();
  device::PcmCell cell(p);
  cell.program(false, rng);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(cell.read_uS(10.0, rng), 0.0);
  }
}

TEST(PcmPathStats, NoisierAndDriftierThanRram) {
  Rng rng(64);
  auto pcm = device::default_pcm();
  auto fresh = device::pcm_path_stats(pcm, 64, 1.0, 300, rng);
  auto aged = device::pcm_path_stats(pcm, 64, 1e5, 300, rng);
  EXPECT_GT(fresh.sigma, 0.0);
  // Drift attenuates the differential signal over time.
  EXPECT_LT(aged.gain, fresh.gain);
  EXPECT_GT(fresh.gain, 0.5);
  EXPECT_LE(fresh.gain, 1.3);
}

// Property sweep: ADC quantization error bounded by half a step.
class AdcBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcBitsSweep, QuantizationErrorBounded) {
  Rng rng(40 + GetParam());
  device::AdcParams p;
  p.bits = GetParam();
  p.full_scale_uA = 50.0;
  p.offset_sigma_frac = 0.0;
  p.gain_sigma_frac = 0.0;
  device::SarAdc adc(p, rng);
  const double step = p.full_scale_uA / adc.max_code();
  for (double v = -49.9; v < 50.0; v += 3.7) {
    const double rec = adc.convert(v) * step;
    EXPECT_LE(std::abs(rec - v), step / 2 + 1e-9) << "bits=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcBitsSweep, ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
