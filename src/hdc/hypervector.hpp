#pragma once
// Bipolar hypervectors x ∈ {−1,+1}^D (Sec. II-A of the paper).
//
// Storage is bit-packed into 64-bit words: bit b=0 encodes +1, b=1 encodes −1
// (value = 1 − 2b). With this convention, binding (element-wise multiplication)
// is XOR and the dot product is D − 2·popcount(x XOR y), which is what the
// CIM macro's "−1's counter + adder" peripheral computes in hardware
// (Sec. III-A). All hot loops in the resonator run on this representation.

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace h3dfact::hdc {

namespace kernels {
struct KernelBackend;
}  // namespace kernels

/// Dense bipolar hypervector with bit-packed storage.
class BipolarVector {
 public:
  BipolarVector() = default;

  /// All-(+1) vector of the given dimension.
  explicit BipolarVector(std::size_t dim);

  /// Construct from explicit ±1 values.
  static BipolarVector from_values(const std::vector<int>& values);

  /// I.i.d. uniform random bipolar vector (item vector generation).
  static BipolarVector random(std::size_t dim, util::Rng& rng);

  /// Rebuild from packed words (deserialization). `words` must hold exactly
  /// ceil(dim/64) entries; tail bits beyond `dim` are masked off.
  static BipolarVector from_words(std::size_t dim,
                                  const std::uint64_t* words,
                                  std::size_t n_words);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t words() const { return words_.size(); }
  [[nodiscard]] const std::uint64_t* data() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* data() { return words_.data(); }

  /// Element access: returns −1 or +1.
  [[nodiscard]] int get(std::size_t i) const;
  void set(std::size_t i, int value);

  /// Element-wise multiplication (binding / unbinding): this ⊙ other.
  [[nodiscard]] BipolarVector bind(const BipolarVector& other) const;

  /// In-place binding.
  void bind_inplace(const BipolarVector& other);

  /// Integer dot product ⟨this, other⟩ ∈ [−D, D].
  [[nodiscard]] long long dot(const BipolarVector& other) const;

  /// Cosine similarity = dot / D.
  [[nodiscard]] double cosine(const BipolarVector& other) const;

  /// Normalized Hamming distance in [0,1].
  [[nodiscard]] double hamming(const BipolarVector& other) const;

  /// Element-wise negation.
  [[nodiscard]] BipolarVector negate() const;

  /// Flip each element independently with probability p (query/channel noise).
  [[nodiscard]] BipolarVector with_flips(double p, util::Rng& rng) const;

  /// Unpack to a ±1 integer vector.
  [[nodiscard]] std::vector<int> to_values() const;

  /// Unpack to ±1 int8 (the CIM macro's crossbar input format).
  [[nodiscard]] std::vector<std::int8_t> to_i8() const;

  /// 64-bit content hash (used by the limit-cycle detector).
  [[nodiscard]] std::uint64_t hash() const;

  bool operator==(const BipolarVector& other) const;

 private:
  void mask_tail();

  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Element-wise sign of integer counts with deterministic +1 tie-break.
/// The sign masks come from the active kernel backend's sign_bits.
BipolarVector sign_of(std::span<const int> counts);

/// Element-wise sign with random tie-break (used when counts can be 0):
/// each zero count, in element order, takes the next bit of a stream of
/// rng.bits64() words, least significant bit first, and a word is drawn
/// only when the previous one is used up.
BipolarVector sign_of(std::span<const int> counts, util::Rng& rng);

/// The two sign_of forms written into `out`, reusing its storage when its
/// dimension already equals counts.size() (the resonator's scratch vector).
void sign_of(std::span<const int> counts, BipolarVector& out);
void sign_of(std::span<const int> counts, util::Rng& rng, BipolarVector& out);

/// The sign_of comparator over values that arrive a chunk at a time, so a
/// producer can hand them over from stack scratch (Codebook::project_sign)
/// instead of a whole integer vector. Any split of the values gives the
/// same bits and the same tie draws as one sign_of call over all of them.
class SignWriter {
 public:
  /// Signs of `dim` values into `out` (resized unless its dimension is
  /// already `dim`). Ties break as in sign_of: randomly from `rng`, or to +1
  /// when `rng` is null. The sign masks come from `backend`'s sign_bits,
  /// and each tied word takes its stream bits through `backend`'s deposit.
  SignWriter(std::size_t dim, util::Rng* rng, BipolarVector& out,
             const kernels::KernelBackend& backend);

  /// The next `len` values. Every call but the last must pass a multiple
  /// of 64 values.
  void put(const int* values, std::size_t len);

  /// The next `nw` output words given as masks, as sign_bits packs them:
  /// bit j of neg[w] marks a negative element and bit j of ties[w] a zero
  /// one, never both. Bits past the dimension must be 0 in both. put()
  /// ends here, and Codebook::project_sign calls it with masks it builds
  /// straight from the packed rows.
  void put_masks(const std::uint64_t* neg, const std::uint64_t* ties,
                 std::size_t nw);

 private:
  const kernels::KernelBackend& backend_;
  util::Rng* rng_;
  std::uint64_t* words_;  // the next output word
  // The tie-break stream: rnd_left unused bits of the last draw, in the
  // low bits of rnd_.
  std::uint64_t rnd_ = 0;
  int rnd_left_ = 0;
};

}  // namespace h3dfact::hdc
