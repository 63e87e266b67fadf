#pragma once
// Per-peer deadline bookkeeping, shared by the sweep scheduler and the
// serving coordinator.
//
// Both event loops block in sweep::poll_channels waiting for remote peers to
// answer an outstanding assignment. With an infinite timeout, a peer that wedges
// without closing its socket stalls the loop forever (the PR-6 scheduler
// hang). A DeadlineTracker turns each outstanding assignment into an armed
// deadline: the loop polls with poll_timeout_ms() instead of -1, and on
// wake-up treats every expired() peer exactly like a disconnect — drop it
// and requeue its work through the existing retry path.

#include <chrono>
#include <map>
#include <vector>

namespace h3dfact::sweep {

/// Tracks one pending deadline per peer (keyed by an opaque pointer).
/// A non-positive deadline disables the tracker: nothing arms, the poll
/// timeout stays infinite, and nothing ever expires — the pre-deadline
/// behavior.
class DeadlineTracker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit DeadlineTracker(int deadline_ms) : deadline_ms_(deadline_ms) {}

  [[nodiscard]] bool enabled() const { return deadline_ms_ > 0; }

  /// Start (or restart) the peer's deadline at now + deadline_ms.
  void arm(const void* peer) {
    if (!enabled()) return;
    armed_[peer] = Clock::now() + std::chrono::milliseconds(deadline_ms_);
  }

  /// The peer answered (or left); forget its deadline.
  void disarm(const void* peer) { armed_.erase(peer); }

  /// Timeout argument for poll_channels: milliseconds until the earliest armed
  /// deadline (rounded up, clamped to >= 0 so an already-expired deadline
  /// still makes poll return immediately), or -1 when nothing is armed.
  [[nodiscard]] int poll_timeout_ms() const {
    if (armed_.empty()) return -1;
    Clock::time_point earliest = armed_.begin()->second;
    for (const auto& [peer, when] : armed_) {
      (void)peer;
      if (when < earliest) earliest = when;
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        earliest - Clock::now());
    return static_cast<int>(std::max<std::chrono::milliseconds::rep>(
        0, left.count()));
  }

  /// Peers whose deadline has passed. Left armed — the caller disarms each
  /// peer as part of dropping it, so a peer is only reported while it still
  /// holds an outstanding assignment.
  [[nodiscard]] std::vector<const void*> expired() const {
    std::vector<const void*> out;
    const Clock::time_point now = Clock::now();
    for (const auto& [peer, when] : armed_) {
      if (when <= now) out.push_back(peer);
    }
    return out;
  }

 private:
  int deadline_ms_ = 0;
  std::map<const void*, Clock::time_point> armed_;
};

}  // namespace h3dfact::sweep
