// Tree search via factorization (Sec. V-E "extensible to other
// applications"). A path through a depth-F tree with branching factor B is
// encoded as the binding of one item vector per level (level codebooks of
// size B). Finding which leaf a descriptor refers to is then a factorization
// problem that the resonator solves in superposition — without enumerating
// the B^F leaves.
//
//   $ ./tree_search [--depth=4] [--branch=16]

#include <iostream>
#include <memory>
#include <vector>

#include "resonator/resonator.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::size_t depth = static_cast<std::size_t>(cli.u64("depth", 4));
  const std::size_t branch = static_cast<std::size_t>(cli.u64("branch", 16));
  const std::size_t dim = static_cast<std::size_t>(cli.u64("dim", 1024));
  cli.reject_unread();

  util::Rng rng(31337);
  auto set = std::make_shared<hdc::CodebookSet>(dim, depth, branch, rng);

  double leaves = 1.0;
  for (std::size_t l = 0; l < depth; ++l) leaves *= static_cast<double>(branch);
  std::cout << "tree: depth " << depth << ", branching " << branch << " -> "
            << leaves << " leaves\n";

  // Pick a random path and form its leaf descriptor.
  std::vector<std::size_t> path(depth);
  for (auto& p : path) p = rng.below(branch);
  hdc::BipolarVector descriptor = set->compose(path);

  std::cout << "ground-truth path:";
  for (auto p : path) std::cout << " " << p;
  std::cout << "\nsearching in superposition...\n";

  auto factorizer = resonator::make_h3dfact(set, /*max_iterations=*/20000);
  resonator::FactorizationProblem problem;
  problem.codebooks = set;
  problem.ground_truth = path;
  problem.query = descriptor;

  auto result = factorizer.run(problem, rng);
  std::cout << "decoded path:     ";
  for (auto p : result.decoded) std::cout << " " << p;
  std::cout << "\n" << (problem.is_correct(result.decoded) ? "found" : "MISSED")
            << " the leaf in " << result.iterations << " iterations — vs "
            << leaves / 2.0 << " expected probes for linear search\n";
  return problem.is_correct(result.decoded) ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
