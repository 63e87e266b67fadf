#include "resonator/profiler.hpp"

#include <cstdint>
namespace h3dfact::resonator {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kUnbind: return "unbind";
    case Phase::kSimilarity: return "similarity";
    case Phase::kChannel: return "channel";
    case Phase::kProjection: return "projection";
    case Phase::kActivation: return "activation";
    case Phase::kDecode: return "decode";
  }
  return "?";
}

PhaseProfiler::Scope::Scope(PhaseProfiler* profiler, Phase phase)
    : profiler_(profiler), phase_(phase) {
  if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
}

PhaseProfiler::Scope::~Scope() {
  if (profiler_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  profiler_->add_time(
      phase_, static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
                      .count()));
}

std::uint64_t PhaseProfiler::total_ns() const {
  std::uint64_t t = 0;
  for (auto v : ns_) t += v;
  return t;
}

std::uint64_t PhaseProfiler::total_ops() const {
  std::uint64_t t = 0;
  for (auto v : ops_) t += v;
  return t;
}

double PhaseProfiler::time_fraction(Phase p) const {
  const auto total = total_ns();
  return total ? static_cast<double>(time_ns(p)) / static_cast<double>(total) : 0.0;
}

double PhaseProfiler::ops_fraction(Phase p) const {
  const auto total = total_ops();
  return total ? static_cast<double>(ops(p)) / static_cast<double>(total) : 0.0;
}

double PhaseProfiler::mvm_time_fraction() const {
  return time_fraction(Phase::kSimilarity) + time_fraction(Phase::kProjection);
}

double PhaseProfiler::mvm_ops_fraction() const {
  return ops_fraction(Phase::kSimilarity) + ops_fraction(Phase::kProjection);
}

void PhaseProfiler::reset() {
  ns_.fill(0);
  ops_.fill(0);
}

void PhaseProfiler::merge(const PhaseProfiler& other) {
  for (int i = 0; i < kNumPhases; ++i) {
    ns_[i] += other.ns_[i];
    ops_[i] += other.ops_[i];
  }
}

}  // namespace h3dfact::resonator
