// Tests for the CIM layer: crossbar analog MVM fidelity, bit-serial inputs,
// WL gating, macro similarity/projection against exact kernels, and the
// hardware-in-the-loop MVM engine.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cim/crossbar.hpp"
#include "cim/engine.hpp"
#include "cim/macro.hpp"
#include "resonator/problem.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace h3dfact;
using cim::CimMacro;
using cim::MacroConfig;
using cim::RramCrossbar;
using hdc::BipolarVector;
using util::Rng;

device::RramParams quiet_params() {
  auto p = device::default_rram_40nm();
  p.prog_sigma = 1e-6;
  p.read_noise_frac = 1e-9;
  return p;
}

std::vector<std::int8_t> random_weights(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> w(n);
  for (auto& x : w) x = static_cast<std::int8_t>(rng.bipolar());
  return w;
}

TEST(Crossbar, NoiselessMvmMatchesExactDot) {
  Rng rng(1);
  RramCrossbar xb(32, 16, quiet_params(), rng);
  auto w = random_weights(32 * 16, rng);
  xb.program(w, rng);
  std::vector<std::int8_t> x(32);
  for (auto& v : x) v = static_cast<std::int8_t>(rng.bipolar());
  auto currents = xb.mvm_bipolar(x, rng);
  const double lsb = xb.delta_g_uS() * xb.v_read();
  for (std::size_t j = 0; j < 16; ++j) {
    long long exact = 0;
    for (std::size_t i = 0; i < 32; ++i) exact += x[i] * w[i * 16 + j];
    EXPECT_NEAR(currents[j] / lsb, static_cast<double>(exact), 0.05) << "col " << j;
  }
}

TEST(Crossbar, EffectiveWeightsNearBipolar) {
  Rng rng(2);
  auto p = device::default_rram_40nm();
  RramCrossbar xb(8, 8, p, rng);
  auto w = random_weights(64, rng);
  xb.program(w, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(xb.effective_weight(i, j), static_cast<double>(w[i * 8 + j]),
                  0.5);
    }
  }
}

TEST(Crossbar, ReadNoiseScalesWithActiveRows) {
  Rng rng(3);
  auto p = device::default_rram_40nm();
  p.prog_sigma = 1e-6;
  RramCrossbar xb(256, 1, p, rng);
  std::vector<std::int8_t> w(256, 1);
  xb.program(w, rng);

  auto column_sigma = [&](std::size_t active) {
    std::vector<std::int8_t> x(256, 0);
    for (std::size_t i = 0; i < active; ++i) x[i] = 1;
    util::RunningStats st;
    for (int s = 0; s < 3000; ++s) st.add(xb.mvm_bipolar(x, rng)[0]);
    return st.stddev();
  };
  const double s64 = column_sigma(64);
  const double s256 = column_sigma(256);
  EXPECT_NEAR(s256 / s64, 2.0, 0.3);  // sqrt(256/64) = 2
}

TEST(Crossbar, DeactivatedRowsContributeNothing) {
  Rng rng(4);
  RramCrossbar xb(16, 4, quiet_params(), rng);
  auto w = random_weights(64, rng);
  xb.program(w, rng);
  std::vector<std::int8_t> none(16, 0);
  auto currents = xb.mvm_bipolar(none, rng);
  for (double c : currents) EXPECT_NEAR(c, 0.0, 1e-3);
}

TEST(Crossbar, BitSerialCoeffsMatchExact) {
  Rng rng(5);
  RramCrossbar xb(8, 8, quiet_params(), rng);
  auto w = random_weights(64, rng);
  xb.program(w, rng);
  std::vector<int> coeffs{3, -7, 0, 5, -2, 7, 1, -4};
  auto currents = xb.mvm_coeffs(coeffs, 4, rng);
  const double lsb = xb.delta_g_uS() * xb.v_read();
  for (std::size_t j = 0; j < 8; ++j) {
    long long exact = 0;
    for (std::size_t i = 0; i < 8; ++i) exact += coeffs[i] * w[i * 8 + j];
    EXPECT_NEAR(currents[j] / lsb, static_cast<double>(exact), 0.1);
  }
}

TEST(Crossbar, RetentionReducesCurrentWhenHot) {
  Rng rng(6);
  RramCrossbar xb(64, 1, quiet_params(), rng);
  std::vector<std::int8_t> w(64, 1);
  xb.program(w, rng);
  std::vector<std::int8_t> x(64, 1);
  const double cold = xb.mvm_bipolar(x, rng, 25.0)[0];
  const double hot = xb.mvm_bipolar(x, rng, 130.0)[0];
  EXPECT_LT(hot, cold);
}

TEST(Crossbar, RejectsBadInputs) {
  Rng rng(8);
  RramCrossbar xb(4, 4, quiet_params(), rng);
  EXPECT_THROW(xb.program(std::vector<std::int8_t>(15, 1), rng),
               std::invalid_argument);
  EXPECT_THROW(xb.program(std::vector<std::int8_t>(16, 2), rng),
               std::invalid_argument);
  std::vector<std::int8_t> x(3, 1);
  EXPECT_THROW((void)xb.mvm_bipolar(x, rng), std::invalid_argument);
}

MacroConfig small_macro_config(bool quiet = true) {
  MacroConfig c;
  c.rows = 64;
  c.subarrays = 4;  // dim = 256
  c.adc_bits = 4;
  if (quiet) c.rram = quiet_params();
  return c;
}

TEST(CimMacro, GeometryValidation) {
  Rng rng(20);
  hdc::Codebook cb(100, 8, rng);  // dim 100 != 64*4
  EXPECT_THROW(CimMacro(cb, small_macro_config(), rng), std::invalid_argument);
}

TEST(CimMacro, SimilarityTracksExactKernel) {
  Rng rng(21);
  hdc::Codebook cb(256, 16, rng);
  CimMacro macro(cb, small_macro_config(), rng);
  auto u = cb.vector(3);  // matching query -> strong positive at index 3
  auto sims = macro.similarity(u, rng);
  ASSERT_EQ(sims.size(), 16u);
  auto best = std::max_element(sims.begin(), sims.end()) - sims.begin();
  EXPECT_EQ(best, 3);
  // The matching code should be near full scale: 4 slices × max code 7 = 28.
  EXPECT_GE(sims[3], 24);
  EXPECT_LE(sims[3], 28);
}

TEST(CimMacro, ProjectionReturnsSignsMatchingExact) {
  Rng rng(22);
  hdc::Codebook cb(256, 16, rng);
  CimMacro macro(cb, small_macro_config(), rng);
  std::vector<int> coeffs(16, 0);
  coeffs[5] = 7;  // strongly select codevector 5
  auto y = macro.project(coeffs, rng);
  ASSERT_EQ(y.size(), 256u);
  int agree = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    EXPECT_TRUE(y[d] == 1 || y[d] == -1);
    agree += (y[d] == cb.vector(5).get(d));
  }
  EXPECT_GT(agree, 250);  // near-perfect sign recovery
}

TEST(CimMacro, ColumnChunkingHandlesWideCodebooks) {
  Rng rng(23);
  hdc::Codebook cb(256, 100, rng);  // M=100 > rows=64 -> multiple col groups
  CimMacro macro(cb, small_macro_config(), rng);
  auto sims = macro.similarity(cb.vector(77), rng);
  ASSERT_EQ(sims.size(), 100u);
  auto best = std::max_element(sims.begin(), sims.end()) - sims.begin();
  EXPECT_EQ(best, 77);
  std::vector<int> coeffs(100, 0);
  coeffs[77] = 7;
  auto y = macro.project(coeffs, rng);
  int agree = 0;
  for (std::size_t d = 0; d < 256; ++d) agree += (y[d] == cb.vector(77).get(d));
  EXPECT_GT(agree, 245);
}

TEST(CimMacro, TemperatureAffectsReadout) {
  Rng rng(25);
  hdc::Codebook cb(256, 8, rng);
  CimMacro macro(cb, small_macro_config(), rng);
  macro.set_temperature(130.0);
  EXPECT_DOUBLE_EQ(macro.temperature(), 130.0);
  auto sims_hot = macro.similarity(cb.vector(2), rng);
  macro.set_temperature(25.0);
  auto sims_cold = macro.similarity(cb.vector(2), rng);
  // Retention loss shrinks the matching similarity when hot.
  EXPECT_LE(sims_hot[2], sims_cold[2]);
}

TEST(CimMacro, VtgtRetuneScalesCodes) {
  Rng rng(26);
  hdc::Codebook cb(256, 8, rng);
  CimMacro macro(cb, small_macro_config(), rng);
  auto before = macro.similarity(cb.vector(1), rng);
  macro.retune_vtgt(0.2);  // attenuate -> smaller codes
  auto after = macro.similarity(cb.vector(1), rng);
  EXPECT_LT(after[1], before[1]);
  EXPECT_THROW(macro.retune_vtgt(0.0), std::invalid_argument);
}

TEST(CimEngine, FactorizesThroughHardwarePath) {
  Rng rng(30);
  auto set = std::make_shared<hdc::CodebookSet>(256, 3, 8, rng);
  MacroConfig mc = small_macro_config(/*quiet=*/false);
  resonator::ResonatorOptions opts;
  opts.max_iterations = 200;
  opts.detect_limit_cycles = false;
  const resonator::ResonatorNetwork net(
      set, std::make_shared<cim::CimMvmEngine>(set, mc, rng), opts);
  resonator::ProblemGenerator gen(set);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    Rng trial(100 + i);
    auto p = gen.sample(trial);
    auto r = net.run(p, trial);
    ok += (r.solved && p.is_correct(r.decoded));
  }
  EXPECT_GE(ok, 8);  // device noise present but small problems solve
}

TEST(CimEngine, TemperaturePropagates) {
  Rng rng(31);
  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  cim::CimMvmEngine engine(set, small_macro_config(), rng);
  engine.set_temperature(90.0);
  for (std::size_t f = 0; f < engine.factors(); ++f) {
    EXPECT_DOUBLE_EQ(engine.macro(f).temperature(), 90.0);
  }
}

TEST(CimEngine, FactorIndexValidated) {
  Rng rng(32);
  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  cim::CimMvmEngine engine(set, small_macro_config(), rng);
  auto u = BipolarVector::random(256, rng);
  EXPECT_THROW((void)engine.similarity(5, u, rng), std::out_of_range);
}

}  // namespace
