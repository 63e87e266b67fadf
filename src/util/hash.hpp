#pragma once
// The repository's one FNV-1a (64-bit): artifact section digests, codebook
// and options fingerprints, and sweep spec fingerprints all hash their
// bytes through util::Fnv1a, so a digest means the same thing everywhere.
//
// scripts/lint_invariants.py bans the FNV offset and prime literals
// everywhere else in src/, so a new digest cannot quietly hand-roll a
// variant of the loop.

#include <cstddef>
#include <cstdint>

namespace h3dfact::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental byte-wise FNV-1a.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
    return *this;
  }

  /// The eight bytes of `v`, least significant first (host-independent).
  Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= kFnvPrime;
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

}  // namespace h3dfact::util
