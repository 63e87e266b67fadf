// Compile-and-smoke test of the umbrella header: every public API surface
// is reachable from a single include, and one object of each layer can be
// constructed together.

#include "h3dfact.hpp"

#include <gtest/gtest.h>
#include <memory>
#include <vector>

namespace {

using namespace h3dfact;

TEST(Umbrella, OneObjectPerLayerCoexists) {
  util::Rng rng(1);
  hdc::BipolarVector v = hdc::BipolarVector::random(256, rng);
  EXPECT_EQ(v.dim(), 256u);

  auto set = std::make_shared<hdc::CodebookSet>(256, 2, 4, rng);
  auto net = resonator::make_baseline(set, 10);
  EXPECT_EQ(net.codebooks().factors(), 2u);

  device::RramCell cell(device::default_rram_40nm());
  cell.program(true, rng);
  EXPECT_TRUE(cell.is_on());

  cim::XnorUnbindUnit xnor;
  (void)xnor.unbind(v, v);

  auto design = arch::make_design(arch::DesignKind::kH3dThreeTier);
  EXPECT_EQ(design.tiers, 3u);

  auto area = ppa::compute_area(design);
  EXPECT_GT(area.total_mm2(), 0.0);

  thermal::StackParams params;
  EXPECT_GT(params.h_top_W_m2K, 0.0);

  const std::vector<dse::Objective> objectives = {
      {"accuracy", dse::Direction::kMaximize}};
  EXPECT_TRUE(dse::dominates({0, {0.9}}, {1, {0.5}}, objectives));

  auto schema = perception::raven_schema();
  EXPECT_EQ(schema.size(), 4u);
}

}  // namespace
