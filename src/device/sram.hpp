#pragma once
// SRAM buffer model (Sec. III-B / IV-A): the tier-1 near-memory buffer that
// holds ADC outputs for batch factorization. Tracks capacity and occupancy,
// which set the scheduler's batch limit; its area and traffic energy are
// ppa's (area_model.cpp, energy_model.cpp).

#include <cstddef>

namespace h3dfact::device {

/// Static configuration of an SRAM macro.
struct SramParams {
  std::size_t words = 4096;
  std::size_t word_bits = 32;
};

/// Capacity model of one SRAM macro used as a near-memory buffer.
class SramBuffer {
 public:
  explicit SramBuffer(const SramParams& params);

  [[nodiscard]] std::size_t capacity_bits() const {
    return params_.words * params_.word_bits;
  }
  [[nodiscard]] std::size_t used_bits() const { return used_bits_; }
  [[nodiscard]] std::size_t free_bits() const { return capacity_bits() - used_bits_; }
  [[nodiscard]] double occupancy() const {
    return static_cast<double>(used_bits_) / static_cast<double>(capacity_bits());
  }

  /// Reserve space for `bits`; throws if the buffer would overflow — the
  /// scheduler must size batches against this (Sec. IV-A).
  void allocate(std::size_t bits);

  /// Release previously allocated bits.
  void release(std::size_t bits);

 private:
  SramParams params_;
  std::size_t used_bits_ = 0;
};

}  // namespace h3dfact::device
