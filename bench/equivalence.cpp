// The statistical equivalence grid: the Table II, DSE and Fig. 6b cells
// that scripts/check_equivalence.py compares between a parent and a change
// whose bits differ (docs/sweeps.md, "Statistical equivalence"). The bench
// runs the registered "equivalence" grid and writes its --json dump; the
// gate pools each cell's replicas and prints the per-cell report:
//
//   ./build/bench/equivalence --shards=4 --strip-wall --json=change.json
//   python3 scripts/check_equivalence.py parent.json change.json
//
// --seed=N moves every trial stream; --theta=X sets every H3DFact cell's
// sense threshold (crosstalk sigmas), the shift the gate's self-test must
// detect.

#include "bench_common.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  bench::run_grid(cli, bench::grids::kEquivalence, {"seed", "theta"});
  return 0;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
