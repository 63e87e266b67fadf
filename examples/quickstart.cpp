// Quickstart: encode a visual object as a holographic product vector and
// factorize it back into its attributes with the H3DFact stochastic
// resonator (Fig. 1a/1b end to end, ~30 lines of API).
//
//   $ ./quickstart
//
// Walks through: codebook creation, binding, factorization, decoding.

#include <iostream>
#include <memory>

#include "hdc/encoding.hpp"
#include "resonator/resonator.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli(argc, argv).reject_unread();  // takes no flags
  util::Rng rng(2024);

  // 1. Build one codebook per attribute (shape / color / vpos / hpos).
  hdc::SceneEncoder encoder(1024, hdc::visual_object_schema(), rng);

  // 2. Compose an object: blue star, bottom-left.
  hdc::SceneObject object;
  object.attribute_indices = {3 /*star*/, 0 /*blue*/, 2 /*bottom*/, 0 /*left*/};
  hdc::BipolarVector s = encoder.encode(object);
  std::cout << "encoded object 'blue star, bottom-left' into a "
            << s.dim() << "-dimensional product hypervector\n";

  // 3. Factorize: only the product vector and the codebooks are given.
  auto set = std::make_shared<hdc::CodebookSet>(encoder.codebooks());
  auto factorizer = resonator::make_h3dfact(set, /*max_iterations=*/500);

  resonator::FactorizationProblem problem;
  problem.codebooks = set;
  problem.ground_truth = object.attribute_indices;
  problem.query = s;

  auto result = factorizer.run(problem, rng);

  // 4. Decode the factor indices back to labels.
  std::cout << "factorized in " << result.iterations << " iteration(s): ";
  const auto labels = encoder.labels(result.decoded);
  for (std::size_t f = 0; f < labels.size(); ++f) {
    std::cout << encoder.spec(f).name << "=" << labels[f]
              << (f + 1 < labels.size() ? ", " : "\n");
  }
  std::cout << (problem.is_correct(result.decoded) ? "correct!" : "WRONG") << '\n';
  return result.solved && problem.is_correct(result.decoded) ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
