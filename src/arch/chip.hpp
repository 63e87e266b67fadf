#pragma once
// The full H3DFact chip facade: couples the functional hardware path (CIM
// macros per factor, Sec. III) with the architectural accounting (tiers,
// TSVs, batch schedule, Sec. IV). This is the object the examples and the
// hardware benches instantiate.

#include <memory>
#include <vector>

#include "arch/design.hpp"
#include "arch/scheduler.hpp"
#include "cim/engine.hpp"
#include "resonator/resonator.hpp"
#include "resonator/trial_runner.hpp"

namespace h3dfact::arch {

/// Result of factorizing a batch through the modelled chip.
struct ChipRunResult {
  std::vector<resonator::ResonatorResult> results;
  ScheduleStats schedule;          ///< cycles / transfers for the whole batch
  std::size_t iterations_max = 0;  ///< schedule is accounted per-iteration
};

/// A configured H3DFact chip bound to one codebook set.
class H3dFactChip {
 public:
  /// Programs the codebooks into the RRAM tiers. `max_iterations` bounds the
  /// resonator loop per problem.
  H3dFactChip(std::shared_ptr<const hdc::CodebookSet> set,
              const DesignSpec& design, std::size_t max_iterations,
              util::Rng& rng);

  [[nodiscard]] const DesignSpec& design() const { return design_; }
  [[nodiscard]] const hdc::CodebookSet& codebooks() const { return *set_; }
  [[nodiscard]] std::size_t max_batch() const { return scheduler_->max_batch(); }

  /// Factorize a batch of problems through the device-level path, accounting
  /// the batched 3-tier schedule. The batch must fit the SRAM buffer.
  ChipRunResult factorize_batch(
      const std::vector<resonator::FactorizationProblem>& problems,
      util::Rng& rng);

  /// Propagate an operating temperature (from the thermal model) to the
  /// RRAM arrays.
  void set_temperature(double celsius) { engine_->set_temperature(celsius); }

  /// Retune the sensing threshold (testchip validation flow, Sec. V-D).
  void retune_vtgt(double factor) { engine_->retune_vtgt(factor); }

  [[nodiscard]] cim::CimMvmEngine& engine() { return *engine_; }

 private:
  std::shared_ptr<const hdc::CodebookSet> set_;
  DesignSpec design_;
  std::shared_ptr<cim::CimMvmEngine> engine_;
  std::unique_ptr<BatchScheduler> scheduler_;
  std::unique_ptr<resonator::ResonatorNetwork> net_;
};

}  // namespace h3dfact::arch
