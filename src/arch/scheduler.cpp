#include "arch/scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace h3dfact::arch {

namespace {
constexpr ScheduleTiming kTiming{};
}  // namespace

void ScheduleStats::merge(const ScheduleStats& o) {
  cycles += o.cycles;
  tier_transitions += o.tier_transitions;
  tsv_bits += o.tsv_bits;
  sram_bits_written += o.sram_bits_written;
  sram_bits_read += o.sram_bits_read;
  adc_conversions += o.adc_conversions;
  mvms += o.mvms;
  peak_buffer_occupancy = std::max(peak_buffer_occupancy, o.peak_buffer_occupancy);
}

BatchScheduler::BatchScheduler(const DesignSpec& design, std::size_t factors,
                               std::size_t codebook_size)
    : design_(design),
      factors_(factors),
      m_(codebook_size),
      sim_tier_("tier-3", TierRole::kSimilarity),
      proj_tier_("tier-2", TierRole::kProjection),
      controller_(sim_tier_, proj_tier_),
      buffer_(device::SramParams{design.dims.sram_buffer_kb * 1024, 8}) {
  if (factors == 0 || codebook_size == 0) {
    throw std::invalid_argument("scheduler needs non-zero problem dimensions");
  }
}

std::size_t BatchScheduler::codes_bits_per_problem() const {
  // M similarity codes of adc_bits each, plus the subarray-sum growth
  // (log2(f) bits of headroom per code).
  const std::size_t growth = design_.dims.subarrays > 1 ? 2 : 0;
  return m_ * (static_cast<std::size_t>(design_.dims.adc_bits) + growth);
}

std::size_t BatchScheduler::max_batch() const {
  const std::size_t per_problem = codes_bits_per_problem();
  return per_problem ? buffer_.capacity_bits() / per_problem : 0;
}

ScheduleStats BatchScheduler::run_iteration(std::size_t batch) {
  if (batch == 0) throw std::invalid_argument("zero batch");
  const std::size_t bits_needed = batch * codes_bits_per_problem();
  buffer_.allocate(bits_needed);  // throws std::overflow_error if too big

  ScheduleStats s;
  const std::size_t D = design_.dims.dim();
  const int adc_bits = design_.dims.adc_bits;

  for (std::size_t f = 0; f < factors_; ++f) {
    // ---- Phase S: similarity tier active for the whole batch ----
    if (controller_.activate(TierRole::kSimilarity)) {
      ++s.tier_transitions;
      s.cycles += kTiming.tier_switch_cycles;
    }
    // Column groups needed when the codebook is wider than one array.
    const std::size_t col_groups =
        (m_ + design_.dims.array_rows - 1) / design_.dims.array_rows;
    for (std::size_t b = 0; b < batch; ++b) {
      // Step I: unbinding result crosses tier-1 → tier-3 (D bits on WL TSVs).
      s.cycles += kTiming.unbind_cycles;
      s.tsv_bits += D;
      s.cycles += kTiming.mvm_pass_cycles() * col_groups;
      ++s.mvms;
      // Step II is analog (one-shot through the column TSVs);
      // step III: 4-bit codes buffered in tier-1 SRAM.
      s.adc_conversions += m_;
      s.sram_bits_written += codes_bits_per_problem();
    }

    // ---- Phase P: projection tier active for the whole batch ----
    if (controller_.activate(TierRole::kProjection)) {
      ++s.tier_transitions;
      s.cycles += kTiming.tier_switch_cycles;
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t code_bits = codes_bits_per_problem();
      s.sram_bits_read += code_bits;
      // Codes cross tier-1 → tier-2 bit-serially over the coefficient planes.
      s.tsv_bits += code_bits;
      s.cycles += kTiming.mvm_pass_cycles() * static_cast<std::uint64_t>(adc_bits);
      ++s.mvms;
      // Step IV: 1-bit projection outputs return to tier-1.
      s.tsv_bits += D;
    }
  }

  s.peak_buffer_occupancy = buffer_.occupancy();
  buffer_.release(bits_needed);
  controller_.park();
  return s;
}

}  // namespace h3dfact::arch
