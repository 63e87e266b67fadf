// Tests for the architecture layer: interconnect math, tier activation
// invariants, design-point inventories, batch scheduling, and the full chip
// facade.

#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/chip.hpp"
#include "arch/design.hpp"
#include "arch/interconnect.hpp"
#include "arch/scheduler.hpp"
#include "arch/tier.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;
using namespace h3dfact::arch;

TEST(Interconnect, Table1Defaults) {
  auto spec = table1_spec();
  EXPECT_DOUBLE_EQ(spec.tsv_diameter_um, 2.0);
  EXPECT_DOUBLE_EQ(spec.tsv_pitch_um, 4.0);
  EXPECT_DOUBLE_EQ(spec.tsv_oxide_thickness_nm, 100.0);
  EXPECT_DOUBLE_EQ(spec.tsv_height_um, 10.0);
  EXPECT_DOUBLE_EQ(spec.hybrid_bond_pitch_um, 10.0);
  EXPECT_DOUBLE_EQ(spec.hybrid_bond_thickness_um, 3.0);
}

TEST(Interconnect, TsvCountFormula) {
  TsvModel tsv;
  // X WLs + Y BLs + Y/2 SLs for a 256x256 array = 640 (Sec. IV-B).
  EXPECT_EQ(tsv.tsvs_per_array(256, 256), 640u);
  EXPECT_EQ(tsv.tsvs_per_array(128, 64), 128u + 64u + 32u);
}

TEST(Interconnect, CapacitancesPhysicallyOrdered) {
  TsvModel tsv;
  EXPECT_GT(tsv.tsv_capacitance_fF(), 0.0);
  EXPECT_GT(tsv.hybrid_bond_capacitance_fF(), 0.0);
  // TSVs are the dominant vertical parasitic.
  EXPECT_GT(tsv.tsv_capacitance_fF(), tsv.hybrid_bond_capacitance_fF());
}

TEST(Interconnect, FrequencyDerateMatchesTable3) {
  TsvModel tsv;
  const double derate = tsv.frequency_derate();
  // 200 MHz -> 185 MHz is a 7.5% penalty.
  EXPECT_NEAR(derate, 0.925, 0.015);
  // More 2D wire load makes the relative TSV penalty smaller.
  EXPECT_GT(tsv.frequency_derate(600.0), derate);
}

TEST(Tier, RolesAreRramOrDigital) {
  Tier t3("tier-3", TierRole::kSimilarity);
  EXPECT_TRUE(t3.is_rram());
  Tier t1("tier-1", TierRole::kDigital);
  EXPECT_FALSE(t1.is_rram());
}

TEST(TierActivation, SingleActiveInvariant) {
  Tier sim("t3", TierRole::kSimilarity);
  Tier proj("t2", TierRole::kProjection);
  TierActivationController ctl(sim, proj);
  EXPECT_EQ(ctl.active(), TierRole::kDigital);  // both parked

  EXPECT_TRUE(ctl.activate(TierRole::kSimilarity));
  EXPECT_EQ(ctl.active(), TierRole::kSimilarity);
  EXPECT_EQ(sim.power(), PowerState::kActive);
  EXPECT_EQ(proj.power(), PowerState::kStandby);

  // Re-activating the active tier is a no-op (no transition cost).
  EXPECT_FALSE(ctl.activate(TierRole::kSimilarity));

  EXPECT_TRUE(ctl.activate(TierRole::kProjection));
  EXPECT_EQ(sim.power(), PowerState::kStandby);
  EXPECT_EQ(proj.power(), PowerState::kActive);

  ctl.park();
  EXPECT_EQ(ctl.active(), TierRole::kDigital);
}

TEST(TierActivation, DigitalTierCannotBeActivated) {
  Tier sim("t3", TierRole::kSimilarity);
  Tier proj("t2", TierRole::kProjection);
  TierActivationController ctl(sim, proj);
  EXPECT_THROW(ctl.activate(TierRole::kDigital), std::invalid_argument);
}

TEST(Design, Table3Inventories) {
  auto designs = table3_designs();
  ASSERT_EQ(designs.size(), 3u);

  const auto& sram = designs[0];
  EXPECT_EQ(sram.kind, DesignKind::kSram2D);
  EXPECT_FALSE(sram.uses_rram);
  EXPECT_EQ(sram.adc_count, 0u);
  EXPECT_EQ(sram.tsv_count, 0u);
  EXPECT_EQ(sram.tiers, 1u);
  EXPECT_FALSE(sram.stochastic);

  const auto& hybrid = designs[1];
  EXPECT_TRUE(hybrid.uses_rram);
  EXPECT_EQ(hybrid.adc_count, 1024u);  // Table III
  EXPECT_EQ(hybrid.tsv_count, 0u);
  EXPECT_EQ(hybrid.rram_node, device::Node::k40nm);
  EXPECT_EQ(hybrid.digital_node, device::Node::k40nm);

  const auto& h3d = designs[2];
  EXPECT_EQ(h3d.tiers, 3u);
  EXPECT_EQ(h3d.adc_count, 1024u);
  EXPECT_EQ(h3d.tsv_count, 5120u);  // Table III
  EXPECT_EQ(h3d.rram_node, device::Node::k40nm);
  EXPECT_EQ(h3d.periphery_node, device::Node::k16nm);
  EXPECT_TRUE(h3d.stochastic);
}

TEST(Design, DimsHelpers) {
  FactorizerDims dims;
  EXPECT_EQ(dims.dim(), 1024u);
  EXPECT_EQ(dims.arrays(), 8u);
  EXPECT_EQ(dims.cells_per_array(), 65536u);
}

TEST(Scheduler, PhasesAlternateOncePerFactor) {
  auto design = make_design(DesignKind::kH3dThreeTier);
  BatchScheduler sched(design, /*factors=*/3, /*codebook_size=*/64);
  auto s = sched.run_iteration(/*batch=*/4);
  // Two transitions per factor (S then P), 3 factors.
  EXPECT_EQ(s.tier_transitions, 6u);
  // One similarity + one projection MVM per problem per factor.
  EXPECT_EQ(s.mvms, 2u * 3u * 4u);
  EXPECT_EQ(s.adc_conversions, 3u * 4u * 64u);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.tsv_bits, 0u);
}

TEST(Scheduler, BatchingAmortizesTierSwitches) {
  auto design = make_design(DesignKind::kH3dThreeTier);
  BatchScheduler a(design, 4, 64);
  BatchScheduler b(design, 4, 64);
  auto one = a.run_iteration(1);
  auto big = b.run_iteration(32);
  // Same number of transitions regardless of batch size...
  EXPECT_EQ(one.tier_transitions, big.tier_transitions);
  // ...so cycles per problem shrink with batching.
  const double cpp_one = static_cast<double>(one.cycles);
  const double cpp_big = static_cast<double>(big.cycles) / 32.0;
  EXPECT_LT(cpp_big, cpp_one);
}

TEST(Scheduler, BufferLimitsBatch) {
  auto design = make_design(DesignKind::kH3dThreeTier);
  BatchScheduler sched(design, 4, 256);
  const std::size_t cap = sched.max_batch();
  EXPECT_GT(cap, 0u);
  EXPECT_THROW((void)sched.run_iteration(cap + 1), std::overflow_error);
  auto s = sched.run_iteration(cap);
  EXPECT_GT(s.peak_buffer_occupancy, 0.9);
}

TEST(Scheduler, CodesBitsScaleWithM) {
  auto design = make_design(DesignKind::kH3dThreeTier);
  BatchScheduler small(design, 3, 16);
  BatchScheduler large(design, 3, 256);
  EXPECT_GT(large.codes_bits_per_problem(), small.codes_bits_per_problem());
  EXPECT_LT(large.max_batch(), small.max_batch());
}

TEST(Scheduler, RejectsDegenerateConfigs) {
  auto design = make_design(DesignKind::kH3dThreeTier);
  EXPECT_THROW(BatchScheduler(design, 0, 16), std::invalid_argument);
  BatchScheduler sched(design, 2, 16);
  EXPECT_THROW((void)sched.run_iteration(0), std::invalid_argument);
}

TEST(Chip, FactorizesBatchAndAccounts) {
  util::Rng rng(50);
  FactorizerDims dims;
  dims.array_rows = 64;  // dim = 256: keep the device path fast in tests
  auto set = std::make_shared<hdc::CodebookSet>(256, 3, 8, rng);
  auto design = make_design(DesignKind::kH3dThreeTier, dims);
  H3dFactChip chip(set, design, /*max_iterations=*/200, rng);

  resonator::ProblemGenerator gen(set);
  std::vector<resonator::FactorizationProblem> batch;
  util::Rng prng(51);
  for (int i = 0; i < 4; ++i) batch.push_back(gen.sample(prng));

  auto out = chip.factorize_batch(batch, prng);
  ASSERT_EQ(out.results.size(), 4u);
  int ok = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    ok += (out.results[i].solved && batch[i].is_correct(out.results[i].decoded));
  }
  EXPECT_GE(ok, 3);
  EXPECT_GT(out.schedule.cycles, 0u);
  EXPECT_EQ(out.schedule.mvms,
            2u * 3u * 4u * out.iterations_max);  // 2 MVM × F × B × iters
}

TEST(Chip, ValidatesGeometryAndBatch) {
  util::Rng rng(52);
  FactorizerDims dims;
  dims.array_rows = 64;
  auto set_bad = std::make_shared<hdc::CodebookSet>(128, 2, 4, rng);
  auto design = make_design(DesignKind::kH3dThreeTier, dims);
  EXPECT_THROW(H3dFactChip(set_bad, design, 10, rng), std::invalid_argument);

  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  H3dFactChip chip(set, design, 10, rng);
  EXPECT_THROW((void)chip.factorize_batch({}, rng), std::invalid_argument);
}

TEST(Chip, TemperatureAndVtgtForwarded) {
  util::Rng rng(53);
  FactorizerDims dims;
  dims.array_rows = 64;
  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  auto design = make_design(DesignKind::kH3dThreeTier, dims);
  H3dFactChip chip(set, design, 10, rng);
  chip.set_temperature(80.0);
  EXPECT_DOUBLE_EQ(chip.engine().macro(0).temperature(), 80.0);
  chip.retune_vtgt(1.1);  // must not throw
}

}  // namespace
