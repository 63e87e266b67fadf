#pragma once
// Codebooks of item vectors (Sec. II-B).
//
// A codebook X = [x_1 ... x_M] holds M random item vectors of dimension D.
// The resonator network needs two kernels per codebook per iteration:
//   similarity  a = Xᵀ u   (M integer dot products — RRAM tier-3 in hardware)
//   projection  y = X a    (D integer accumulations — RRAM tier-2 in hardware)
// Both are provided here as exact software kernels, computed straight from
// the packed codevector bits; the cim/arch layers model the same
// computation through the noisy analog path. project_sign fuses the
// projection with the comparator that ends the projection tier (x̂ = sign(X a),
// one bit per dimension), so the resonator step keeps no integer vector.
// The arithmetic itself lives in the multi-ISA backend layer
// (hdc/kernels/backend.hpp): every per-call and batched entry point routes
// through the runtime-selected KernelBackend, with an overload to pin a
// specific backend explicitly.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hdc/hypervector.hpp"
#include "util/rng.hpp"

namespace h3dfact::hdc {

namespace kernels {
struct KernelBackend;
}  // namespace kernels

/// Item-major block of integer coefficients for B batch items of `size`
/// entries each: entry i of item b lives at data[b*size + i], so each
/// item is one contiguous run. The similarity tile writes a query's scores
/// straight into its item, the projection writes each item in place, and
/// the activation reads an item as a span.
struct CoeffBlock {
  std::size_t size = 0;   ///< entries per batch item (M or D)
  std::size_t batch = 0;  ///< number of batch items B
  std::vector<int> data;  ///< size*batch values, item-major

  CoeffBlock() = default;
  CoeffBlock(std::size_t size_, std::size_t batch_)
      : size(size_), batch(batch_), data(size_ * batch_, 0) {}

  [[nodiscard]] int at(std::size_t i, std::size_t b) const {
    return data[b * size + i];
  }
  int& at(std::size_t i, std::size_t b) { return data[b * size + i]; }

  /// Batch item b in place.
  [[nodiscard]] std::span<const int> item_span(std::size_t b) const {
    return {data.data() + b * size, size};
  }

  /// Copy batch item b out (per-item channel/argmax).
  [[nodiscard]] std::vector<int> item(std::size_t b) const;

  /// Copy a vector into batch item b. `values.size() == size`.
  void set_item(std::size_t b, const std::vector<int>& values);

  /// Pack per-item vectors (all of equal length) into a block.
  [[nodiscard]] static CoeffBlock from_items(
      const std::vector<std::vector<int>>& items);
};

/// A set of M random item vectors with fast similarity / projection kernels.
class Codebook {
 public:
  Codebook() = default;

  /// Generate M i.i.d. random item vectors of dimension D.
  Codebook(std::size_t dim, std::size_t size, util::Rng& rng,
           std::string name = "");

  /// Build from explicit vectors (all must share the same dimension).
  explicit Codebook(std::vector<BipolarVector> vectors, std::string name = "");

  /// Rebuild from a row-major block of packed codevector words (`size` rows
  /// of ceil(dim/64) words each) — the deserialization path of src/io/.
  /// Throws std::invalid_argument naming the first row with a bit set past
  /// `dim`, in both modes. With `borrow == false` the words are copied.
  /// With `borrow == true` the kernels stream rows straight out of `words`
  /// (the mmap zero-copy path): the caller must keep the block alive and
  /// unchanged for the lifetime of the codebook and every copy of it
  /// (io::codec ties the mapping's lifetime to the set with an aliasing
  /// shared_ptr).
  static Codebook from_packed(std::size_t dim, std::size_t size,
                              const std::uint64_t* words, std::size_t n_words,
                              std::string name = "", bool borrow = false);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t size() const { return vectors_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const BipolarVector& vector(std::size_t m) const { return vectors_[m]; }
  [[nodiscard]] const std::vector<BipolarVector>& vectors() const { return vectors_; }

  /// a = Xᵀ u: dot product of u with every codevector. a[m] ∈ [−D, D].
  [[nodiscard]] std::vector<int> similarity(const BipolarVector& u) const;

  /// similarity() pinned to one kernel backend (parity tests, A/B timing);
  /// the overload without a backend uses the runtime-selected one.
  [[nodiscard]] std::vector<int> similarity(
      const BipolarVector& u, const kernels::KernelBackend& backend) const;

  /// y = X a: weighted sum of codevectors with integer coefficients.
  [[nodiscard]] std::vector<int> project(const std::vector<int>& coeffs) const;

  /// project() pinned to one kernel backend.
  [[nodiscard]] std::vector<int> project(
      const std::vector<int>& coeffs,
      const kernels::KernelBackend& backend) const;

  /// Batched a_b = Xᵀ u_b over the shared codebook: the kernel policy
  /// (hdc/kernels/policy.hpp) picks per-call vs blocked-tile loop shape by
  /// batch size, and passes above the policy's work threshold fan codebook
  /// row ranges across the KernelPool (SIMD-accelerated where the CPU
  /// supports it at runtime; bit-identical at any thread count). Returns an
  /// M×B block; item b is bit-for-bit equal to similarity(us[b]).
  [[nodiscard]] CoeffBlock similarity_batch(
      std::span<const BipolarVector> us) const;

  /// similarity_batch() pinned to one kernel backend.
  [[nodiscard]] CoeffBlock similarity_batch(
      std::span<const BipolarVector> us,
      const kernels::KernelBackend& backend) const;

  /// Batched y_b = X a_b, each item written in place in the returned
  /// block; large passes fan batch sub-ranges across the KernelPool,
  /// bit-identical at any thread count.
  /// `coeffs.size == size()`. Returns a D×B block; item b is bit-for-bit
  /// equal to project(coeffs.item(b)).
  [[nodiscard]] CoeffBlock project_batch(const CoeffBlock& coeffs) const;

  /// project_batch() pinned to one kernel backend.
  [[nodiscard]] CoeffBlock project_batch(
      const CoeffBlock& coeffs, const kernels::KernelBackend& backend) const;

  /// Projection and comparator in one pass: out[b] = sign(X c_b) for every
  /// item b, ties broken by rngs[b] as sign_of(counts, rng) breaks them, or
  /// to +1 where rngs[b] is null. Bit for bit sign_of(project(c_b)) with
  /// the same draws, but no integer vector is written and nothing is
  /// allocated once the calling thread is warm: an item with no nonzero
  /// coefficient, one dominant coefficient or two nonzero coefficients
  /// takes its sign and tie masks straight from the packed rows, and any
  /// other item is summed a 4096-element stack chunk at a time. Passes
  /// above the policy's work threshold fan items across the KernelPool like
  /// project_batch; each item draws only from its own generator, so items
  /// must not share one. Every c_b has size() entries, and rngs and out
  /// match coeffs.
  void project_sign(std::span<const std::vector<int>> coeffs,
                    std::span<util::Rng* const> rngs,
                    std::span<BipolarVector> out,
                    const kernels::KernelBackend& backend) const;

  /// Fused resonator step: sign(X (Xᵀ u)) with deterministic tie-break.
  [[nodiscard]] BipolarVector resonate(const BipolarVector& u) const;

  /// Index of the codevector with maximal dot product to u (cleanup).
  [[nodiscard]] std::size_t nearest(const BipolarVector& u) const;

  /// Superposition (majority bundle) of all codevectors — the standard
  /// resonator initial state x̂(0). Ties break deterministically to +1.
  /// The member votes Σ_m x_m are counted once, at construction.
  [[nodiscard]] BipolarVector superposition() const;

  /// Superposition with random tie-break (preferred for even codebook sizes,
  /// where exact count ties are common).
  [[nodiscard]] BipolarVector superposition(util::Rng& rng) const;

  /// Packed words per codevector row (= ceil(dim/64)).
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

  /// Row-major packed codevector words (size() rows × words_per_row()):
  /// the exact bytes the similarity and projection kernels stream and
  /// src/io/ serializes.
  /// Points into the owned copy, or into a borrowed block (mmap) for
  /// codebooks built with from_packed(..., borrow = true).
  [[nodiscard]] const std::uint64_t* packed_data() const {
    return packed_view_ ? packed_view_ : packed_.data();
  }

  /// True when packed_data() borrows caller-owned storage (zero-copy load).
  [[nodiscard]] bool packed_borrowed() const { return packed_view_ != nullptr; }

 private:
  void build_rows();

  std::size_t dim_ = 0;
  std::string name_;
  std::vector<BipolarVector> vectors_;
  std::vector<int> counts_;  // Σ_m x_m[d]: the superposition votes
  // Row-major copy of the packed codevector words (size() rows × words_
  // words), so the kernels stream rows contiguously.
  std::vector<std::uint64_t> packed_;
  // Borrowed packed rows (from_packed with borrow=true): when set, the
  // kernels read from here and packed_ stays empty.
  const std::uint64_t* packed_view_ = nullptr;
  std::size_t words_ = 0;  // packed words per row
};

/// The F codebooks of a factorization problem, e.g. {shape, color, v-pos, h-pos}.
class CodebookSet {
 public:
  CodebookSet() = default;

  /// F codebooks, each with M vectors of dimension D.
  CodebookSet(std::size_t dim, std::size_t factors, std::size_t size,
              util::Rng& rng);

  explicit CodebookSet(std::vector<Codebook> books);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t factors() const { return books_.size(); }
  [[nodiscard]] const Codebook& book(std::size_t f) const { return books_[f]; }

  /// Compose a product vector s = x_{i1} ⊙ x_{i2} ⊙ ... from indices.
  [[nodiscard]] BipolarVector compose(const std::vector<std::size_t>& indices) const;

  /// compose() written into `out`, reusing its storage (the resonator's
  /// per-iteration decode check).
  void compose(const std::vector<std::size_t>& indices,
               BipolarVector& out) const;

  /// Total search-space size ∏ M_f as double (can exceed 2^64).
  [[nodiscard]] double search_space() const;

 private:
  std::size_t dim_ = 0;
  std::vector<Codebook> books_;
};

/// Order-independent FNV-1a digest of a codebook set: structural dimensions
/// plus every codevector's packed words in (factor, codevector, word) order.
/// Any bit of difference — size, shape or content — changes the digest.
/// This is the identity both serve's worker-binding handshake and the
/// src/io/ artifact layer verify against.
std::uint64_t set_fingerprint(const CodebookSet& set);

}  // namespace h3dfact::hdc
