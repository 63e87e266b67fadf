// Tests for the perception stack: RAVEN schema/dataset, frontend surrogate
// statistics, and the end-to-end disentangling pipeline (Fig. 7).

#include <cmath>
#include <gtest/gtest.h>
#include <stdexcept>
#include <vector>

#include "perception/frontend.hpp"
#include "perception/pipeline.hpp"
#include "perception/raven.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace h3dfact;
using namespace h3dfact::perception;
using util::Rng;

TEST(Raven, SchemaMatchesDataset) {
  auto schema = raven_schema();
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema[0].name, "type");
  EXPECT_EQ(schema[0].values.size(), 5u);
  EXPECT_EQ(schema[1].values.size(), 6u);
  EXPECT_EQ(schema[2].values.size(), 10u);
  EXPECT_EQ(schema[3].values.size(), 9u);  // 3x3 grid positions
}

TEST(Raven, DatasetIndicesInRange) {
  Rng rng(1);
  RavenDataset ds(500, rng);
  auto schema = raven_schema();
  EXPECT_EQ(ds.size(), 500u);
  for (const auto& s : ds.scenes()) {
    ASSERT_EQ(s.attributes.size(), schema.size());
    for (std::size_t f = 0; f < schema.size(); ++f) {
      EXPECT_LT(s.attributes[f], schema[f].values.size());
    }
  }
}

TEST(Raven, DatasetCoversVocabulary) {
  Rng rng(2);
  RavenDataset ds(2000, rng);
  auto schema = raven_schema();
  for (std::size_t f = 0; f < schema.size(); ++f) {
    std::vector<int> seen(schema[f].values.size(), 0);
    for (const auto& s : ds.scenes()) seen[s.attributes[f]] = 1;
    for (std::size_t v = 0; v < seen.size(); ++v) {
      EXPECT_EQ(seen[v], 1) << "attribute " << f << " value " << v;
    }
  }
}

TEST(Frontend, FlipProbabilityFormula) {
  EXPECT_DOUBLE_EQ(NeuralFrontendSurrogate::flip_prob_for_cosine(1.0), 0.0);
  EXPECT_DOUBLE_EQ(NeuralFrontendSurrogate::flip_prob_for_cosine(0.6), 0.2);
  EXPECT_DOUBLE_EQ(NeuralFrontendSurrogate::flip_prob_for_cosine(0.0), 0.5);
  EXPECT_DOUBLE_EQ(NeuralFrontendSurrogate::flip_prob_for_cosine(-1.0), 0.5);
}

TEST(Frontend, OutputCosineMatchesTarget) {
  Rng rng(3);
  hdc::SceneEncoder enc(4096, raven_schema(), rng);
  FrontendParams fp;
  fp.feature_cosine = 0.6;
  fp.cosine_jitter = 0.0;
  NeuralFrontendSurrogate surrogate(enc, fp);

  util::RunningStats st;
  for (int i = 0; i < 200; ++i) {
    RavenScene scene;
    auto obj = enc.random_object(rng);
    scene.attributes = obj.attribute_indices;
    auto approx = surrogate.infer(scene, rng);
    auto exact = enc.encode(obj);
    st.add(exact.cosine(approx));
  }
  EXPECT_NEAR(st.mean(), 0.6, 0.02);
}

TEST(Frontend, JitterSpreadsQuality) {
  Rng rng(4);
  hdc::SceneEncoder enc(4096, raven_schema(), rng);
  FrontendParams fp;
  fp.feature_cosine = 0.7;
  fp.cosine_jitter = 0.05;
  NeuralFrontendSurrogate surrogate(enc, fp);
  util::RunningStats st;
  for (int i = 0; i < 300; ++i) {
    RavenScene scene;
    auto obj = enc.random_object(rng);
    scene.attributes = obj.attribute_indices;
    st.add(enc.encode(obj).cosine(surrogate.infer(scene, rng)));
  }
  EXPECT_GT(st.stddev(), 0.02);
}

TEST(Frontend, RejectsBadQuality) {
  Rng rng(5);
  hdc::SceneEncoder enc(256, raven_schema(), rng);
  FrontendParams fp;
  fp.feature_cosine = 0.0;
  EXPECT_THROW(NeuralFrontendSurrogate(enc, fp), std::invalid_argument);
  fp.feature_cosine = 1.5;
  EXPECT_THROW(NeuralFrontendSurrogate(enc, fp), std::invalid_argument);
}

TEST(Pipeline, DisentanglesCleanishScenes) {
  PipelineConfig cfg;
  cfg.dim = 512;
  cfg.max_iterations = 300;
  cfg.frontend.feature_cosine = 0.8;
  PerceptionPipeline pipe(cfg);
  // 300 scenes: over datasets of 30 the attribute accuracy spreads with an
  // SD of about 0.026 around 0.978, so one dataset in seven read under the
  // bound; over 300 scenes the SD is about 0.008 and the bound sits 3.4 SDs
  // below the mean.
  Rng rng(6);
  RavenDataset ds(300, rng);
  auto res = pipe.evaluate(ds);
  EXPECT_GE(res.attribute_accuracy(), 0.95);
}

TEST(Pipeline, Fig7AccuracyAtResnetQuality) {
  PipelineConfig cfg;  // defaults: cosine 0.6, D=1024
  cfg.max_iterations = 600;
  PerceptionPipeline pipe(cfg);
  Rng rng(7);
  RavenDataset ds(80, rng);
  auto res = pipe.evaluate(ds);
  // Paper: 99.4% attribute estimation accuracy.
  EXPECT_GE(res.attribute_accuracy(), 0.97);
  EXPECT_GT(res.mean_iterations, 0.0);
}

TEST(Pipeline, PerAttributeCountsConsistent) {
  PipelineConfig cfg;
  cfg.dim = 512;
  cfg.max_iterations = 200;
  cfg.frontend.feature_cosine = 0.9;
  PerceptionPipeline pipe(cfg);
  Rng rng(8);
  RavenDataset ds(20, rng);
  auto res = pipe.evaluate(ds);
  ASSERT_EQ(res.correct_per_attribute.size(), 4u);
  for (auto c : res.correct_per_attribute) EXPECT_LE(c, res.scenes);
  EXPECT_LE(res.all_correct, res.scenes);
  EXPECT_LE(res.scene_accuracy(), res.attribute_accuracy() + 1e-9);
}

TEST(Pipeline, DisentangleSingleScene) {
  PipelineConfig cfg;
  cfg.dim = 512;
  cfg.max_iterations = 300;
  cfg.frontend.feature_cosine = 0.85;
  PerceptionPipeline pipe(cfg);
  Rng rng(9);
  RavenScene scene{{2, 4, 7, 1}};
  auto decoded = pipe.disentangle(scene, rng);
  EXPECT_EQ(decoded, scene.attributes);
}

TEST(Pipeline, RejectsImpossibleDetectionBand) {
  PipelineConfig cfg;
  cfg.frontend.feature_cosine = 0.1;
  cfg.success_margin = 0.2;  // threshold would be negative
  EXPECT_THROW(PerceptionPipeline{cfg}, std::invalid_argument);
}

TEST(PerceptionResult, AccuracyMath) {
  PerceptionResult r;
  r.scenes = 10;
  r.correct_per_attribute = {10, 9, 8, 10};
  r.all_correct = 7;
  EXPECT_DOUBLE_EQ(r.attribute_accuracy(), 37.0 / 40.0);
  EXPECT_DOUBLE_EQ(r.scene_accuracy(), 0.7);
  PerceptionResult empty;
  EXPECT_DOUBLE_EQ(empty.attribute_accuracy(), 0.0);
}

// Quality sweep: accuracy decreases monotonically (in the large) with
// frontend degradation, but stays high down to ResNet-class quality.
class QualitySweep : public ::testing::TestWithParam<double> {};

TEST_P(QualitySweep, AccuracyAboveThreshold) {
  PipelineConfig cfg;
  cfg.dim = 512;
  cfg.max_iterations = 500;
  cfg.frontend.feature_cosine = GetParam();
  cfg.frontend.cosine_jitter = 0.0;
  PerceptionPipeline pipe(cfg);
  Rng rng(42);
  RavenDataset ds(25, rng);
  auto res = pipe.evaluate(ds);
  EXPECT_GE(res.attribute_accuracy(), 0.9) << "cosine " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(FrontendQuality, QualitySweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.9));

}  // namespace
