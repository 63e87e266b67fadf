#pragma once
// Batch scheduler (Sec. IV-A, "Tier-1 SRAM Digital Compute").
//
// Because tier-2 and tier-3 share one set of peripherals, only one RRAM tier
// can be active at a time. For a factorization batch of B problems, the
// scheduler therefore runs per factor:
//   phase S: tier-3 active — similarity MVMs for all B problems; the 4-bit
//            ADC codes are buffered in tier-1 SRAM,
//   phase P: tier-2 active — projection MVMs consume the buffered codes.
// Without the SRAM buffer the two tiers would have to ping-pong per problem,
// paying a level-shifter transition each time. The scheduler owns the stage
// timing and returns, per iteration, the cycles, tier transitions, TSV
// bit-transfers, SRAM traffic and ADC conversions it counted.

#include <cstdint>

#include "arch/design.hpp"
#include "arch/tier.hpp"
#include "device/sram.hpp"

namespace h3dfact::arch {

/// Per-run accounting produced by the scheduler.
struct ScheduleStats {
  std::uint64_t cycles = 0;
  std::uint64_t tier_transitions = 0;
  std::uint64_t tsv_bits = 0;        ///< bits crossing tiers (steps I–IV)
  std::uint64_t sram_bits_written = 0;
  std::uint64_t sram_bits_read = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t mvms = 0;
  double peak_buffer_occupancy = 0.0;  ///< fraction of SRAM buffer used

  void merge(const ScheduleStats& o);
};

/// Latency parameters of the pipeline stages (cycles). The 16:1 ADC
/// column-mux sharing mirrors the MUX-shared sensing of the 40 nm testchip
/// macro [25].
struct ScheduleTiming {
  std::uint32_t wl_settle = 16;         ///< row driver settle per MVM pass
  std::uint32_t adc_cycles = 5;         ///< 4-bit SAR: sample + 4 bit cycles
  std::uint32_t adc_share = 16;         ///< columns muxed per ADC
  std::uint32_t digital_accum = 42;     ///< slice-code accumulation pipeline
  std::uint32_t unbind_cycles = 4;      ///< XNOR array pass for one factor
  std::uint32_t tier_switch_cycles = 12;///< WL level-shifter transition

  /// Cycles of one full 256×256 analog MVM pass: WL settle, then the ADC
  /// mux schedule over each subarray's columns (adc_share columns per ADC,
  /// all subarrays and their ADC banks concurrent), then the digital
  /// slice-code accumulation. The defaults give 16 + 16·5 + 42 = 138, the
  /// latency fit so that 8 concurrent arrays at 200 MHz give the 1.52 TOPS
  /// of Table III; ppa::compute_timing reads it from here.
  [[nodiscard]] constexpr std::uint64_t mvm_pass_cycles() const {
    return wl_settle + static_cast<std::uint64_t>(adc_cycles) * adc_share +
           digital_accum;
  }
};

/// Simulates the per-iteration schedule for one design point and batch size.
class BatchScheduler {
 public:
  /// `factors` = F, `codebook_size` = M of the mapped problem. The stage
  /// timing is ScheduleTiming{}, the one ppa::compute_timing reads.
  BatchScheduler(const DesignSpec& design, std::size_t factors,
                 std::size_t codebook_size);

  /// Account one full resonator iteration for a batch of `batch` problems.
  /// Throws std::overflow_error if the batch does not fit the SRAM buffer
  /// (the caller should split the batch).
  ScheduleStats run_iteration(std::size_t batch);

  /// Largest batch whose similarity codes fit in the tier-1 buffer.
  [[nodiscard]] std::size_t max_batch() const;

  /// Bits of similarity codes one problem produces per factor.
  [[nodiscard]] std::size_t codes_bits_per_problem() const;

 private:
  DesignSpec design_;
  std::size_t factors_;
  std::size_t m_;
  Tier sim_tier_;
  Tier proj_tier_;
  TierActivationController controller_;
  device::SramBuffer buffer_;
};

}  // namespace h3dfact::arch
