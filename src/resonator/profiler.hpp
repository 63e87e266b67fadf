#pragma once
// Per-phase op counting and wall-clock profiling of the factorization loop.
// Regenerates the characterization behind Fig. 1c (MVM ≈ 80 % of compute).

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace h3dfact::resonator {

/// The computational phases of one resonator iteration (Fig. 1b/1c).
enum class Phase : int {
  kUnbind = 0,      ///< s ⊙ x̂ ⊙ ... (XNOR tier-1)
  kSimilarity = 1,  ///< a = Xᵀu  (RRAM tier-3 MVM)
  kChannel = 2,     ///< noise/ADC on the similarity path
  kProjection = 3,  ///< y = X a  (RRAM tier-2 MVM), plus sign()'s time
  kActivation = 4,  ///< sign(): ops only, since the comparator ends the
                    ///< projection pass (MvmEngine::project_sign)
  kDecode = 5,      ///< argmax decode + convergence check
};
inline constexpr int kNumPhases = 6;

/// Name of a phase for reports.
const char* phase_name(Phase p);

/// Accumulated wall time and element-operation counts per phase.
class PhaseProfiler {
 public:
  /// RAII scope that attributes elapsed time to a phase.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, Phase phase);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* profiler_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  void add_time(Phase p, std::uint64_t ns) { ns_[static_cast<int>(p)] += ns; }
  void add_ops(Phase p, std::uint64_t ops) { ops_[static_cast<int>(p)] += ops; }

  [[nodiscard]] std::uint64_t time_ns(Phase p) const { return ns_[static_cast<int>(p)]; }
  [[nodiscard]] std::uint64_t ops(Phase p) const { return ops_[static_cast<int>(p)]; }
  [[nodiscard]] std::uint64_t total_ns() const;
  [[nodiscard]] std::uint64_t total_ops() const;

  /// Fraction of total wall time spent in phase p (0 if nothing recorded).
  [[nodiscard]] double time_fraction(Phase p) const;
  /// Fraction of total element-ops in phase p.
  [[nodiscard]] double ops_fraction(Phase p) const;
  /// Combined MVM share (similarity + projection), the Fig. 1c headline.
  [[nodiscard]] double mvm_time_fraction() const;
  [[nodiscard]] double mvm_ops_fraction() const;

  void reset();
  void merge(const PhaseProfiler& other);

 private:
  std::array<std::uint64_t, kNumPhases> ns_{};
  std::array<std::uint64_t, kNumPhases> ops_{};
};

}  // namespace h3dfact::resonator
