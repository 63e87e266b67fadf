// Fig. 7: holographic neuro-symbolic visual perception. A neural-frontend
// surrogate maps RAVEN-style scenes to approximate product hypervectors;
// H3DFact disentangles the attributes (type, size, color, position).
// Reports per-attribute and overall attribute-estimation accuracy.

#include <cstdint>
#include <iostream>

#include "perception/pipeline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t scenes = static_cast<std::size_t>(cli.u64("scenes", 300));
  const double cosine = cli.f64("cosine", 0.6);
  const std::uint64_t seed = cli.u64("seed", 77);

  perception::PipelineConfig cfg;
  cfg.frontend.feature_cosine = cosine;
  cfg.max_iterations = static_cast<std::size_t>(cli.u64("cap", 1000));
  cfg.seed = seed;
  cli.reject_unread();
  perception::PerceptionPipeline pipe(cfg);

  util::Rng rng(seed + 1);
  perception::RavenDataset ds(scenes, rng);
  std::fprintf(stderr, "[fig7] evaluating %zu scenes...\n", scenes);
  auto res = pipe.evaluate(ds);

  util::Table t("Fig. 7 -- RAVEN attribute disentangling accuracy");
  t.set_header({"attribute", "vocabulary", "accuracy %"});
  const auto schema = perception::raven_schema();
  for (std::size_t f = 0; f < schema.size(); ++f) {
    t.add_row({schema[f].name,
               util::Table::fmt_int(static_cast<long long>(schema[f].values.size())),
               util::Table::fmt_pct(static_cast<double>(res.correct_per_attribute[f]) /
                                    res.scenes)});
  }
  t.add_row({"== all attributes ==", "",
             util::Table::fmt_pct(res.attribute_accuracy())});
  t.add_row({"== whole scenes ==", "", util::Table::fmt_pct(res.scene_accuracy())});
  t.add_note("Paper: 99.4% attribute estimation accuracy on RAVEN.");
  t.add_note("Frontend surrogate feature cosine " + util::Table::fmt(cosine, 2) +
             " (ResNet-18-class holographic embedding quality); mean " +
             util::Table::fmt(res.mean_iterations, 1) + " iterations/scene.");
  t.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
