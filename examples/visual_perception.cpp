// Visual perception scenario (Fig. 7): a neural-frontend surrogate produces
// *approximate* holographic perceptual vectors for RAVEN-style scenes; the
// H3DFact factorizer disentangles type / size / color / position even though
// the query only matches the true product vector at cosine ~0.6.
//
//   $ ./visual_perception [--scenes=50] [--cosine=0.6]

#include <algorithm>
#include <iostream>

#include "perception/pipeline.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t scenes = static_cast<std::size_t>(cli.u64("scenes", 50));
  const double cosine = cli.f64("cosine", 0.6);
  cli.reject_unread();

  perception::PipelineConfig cfg;
  cfg.frontend.feature_cosine = cosine;
  perception::PerceptionPipeline pipe(cfg);
  const auto schema = perception::raven_schema();

  util::Rng rng(99);
  perception::RavenDataset dataset(scenes, rng);

  // Show a few individual scenes end to end.
  std::cout << "disentangling sample scenes (frontend cosine " << cosine << "):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, scenes); ++i) {
    const auto& scene = dataset.scene(i);
    auto decoded = pipe.disentangle(scene, rng);
    std::cout << "  scene " << i << ": ";
    for (std::size_t f = 0; f < schema.size(); ++f) {
      std::cout << schema[f].name << "="
                << schema[f].values[decoded[f]]
                << (decoded[f] == scene.attributes[f] ? "" : "(!)")
                << (f + 1 < schema.size() ? ", " : "");
    }
    std::cout << '\n';
  }

  auto res = pipe.evaluate(dataset);
  std::cout << "\nover " << scenes << " scenes:\n";
  for (std::size_t f = 0; f < schema.size(); ++f) {
    std::cout << "  " << schema[f].name << " accuracy: "
              << 100.0 * static_cast<double>(res.correct_per_attribute[f]) /
                     res.scenes
              << "%\n";
  }
  std::cout << "  attribute accuracy: " << 100.0 * res.attribute_accuracy()
            << "%  (paper: 99.4%)\n"
            << "  mean iterations/scene: " << res.mean_iterations << '\n';
  return res.attribute_accuracy() > 0.9 ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
