#include "hdc/hypervector.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "hdc/kernels/backend.hpp"
#include "util/hash.hpp"

namespace h3dfact::hdc {

namespace {
// ceil(dim / 64) without the wrap of (dim + 63) / 64 near SIZE_MAX.
std::size_t words_for(std::size_t dim) { return dim / 64 + (dim % 64 != 0); }
}  // namespace

BipolarVector::BipolarVector(std::size_t dim)
    : dim_(dim), words_(words_for(dim), 0) {}

BipolarVector BipolarVector::from_values(const std::vector<int>& values) {
  BipolarVector v(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 1 && values[i] != -1) {
      throw std::invalid_argument("bipolar values must be +1 or -1");
    }
    v.set(i, values[i]);
  }
  return v;
}

BipolarVector BipolarVector::random(std::size_t dim, util::Rng& rng) {
  BipolarVector v(dim);
  for (auto& w : v.words_) w = rng.bits64();
  v.mask_tail();
  return v;
}

BipolarVector BipolarVector::from_words(std::size_t dim,
                                        const std::uint64_t* words,
                                        std::size_t n_words) {
  if (n_words != words_for(dim)) {
    throw std::invalid_argument("from_words: word count does not match dim");
  }
  BipolarVector v(dim);
  for (std::size_t w = 0; w < n_words; ++w) v.words_[w] = words[w];
  v.mask_tail();
  return v;
}

int BipolarVector::get(std::size_t i) const {
  const std::uint64_t bit = (words_[i / 64] >> (i % 64)) & 1ULL;
  return bit ? -1 : 1;
}

void BipolarVector::set(std::size_t i, int value) {
  const std::uint64_t mask = 1ULL << (i % 64);
  if (value == -1) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

BipolarVector BipolarVector::bind(const BipolarVector& other) const {
  if (dim_ != other.dim_) throw std::invalid_argument("dim mismatch in bind");
  BipolarVector out(dim_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] = words_[w] ^ other.words_[w];
  }
  return out;
}

void BipolarVector::bind_inplace(const BipolarVector& other) {
  if (dim_ != other.dim_) throw std::invalid_argument("dim mismatch in bind");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
}

long long BipolarVector::dot(const BipolarVector& other) const {
  if (dim_ != other.dim_) throw std::invalid_argument("dim mismatch in dot");
  // One row against one query through the active kernel: D − 2·popcount of
  // the XOR (agreements − disagreements), on the widest popcount the CPU has.
  const std::uint64_t* query = other.data();
  int sim = 0;
  kernels::active().similarity_tile(data(), words_.size(), 1, &query, 1,
                                    words_.size(),
                                    static_cast<long long>(dim_), &sim, 1);
  return sim;
}

double BipolarVector::cosine(const BipolarVector& other) const {
  if (dim_ == 0) return 0.0;
  return static_cast<double>(dot(other)) / static_cast<double>(dim_);
}

double BipolarVector::hamming(const BipolarVector& other) const {
  if (dim_ != other.dim_) throw std::invalid_argument("dim mismatch in hamming");
  if (dim_ == 0) return 0.0;
  const long long disagree = (static_cast<long long>(dim_) - dot(other)) / 2;
  return static_cast<double>(disagree) / static_cast<double>(dim_);
}

BipolarVector BipolarVector::negate() const {
  BipolarVector out(dim_);
  for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] = ~words_[w];
  out.mask_tail();
  return out;
}

BipolarVector BipolarVector::with_flips(double p, util::Rng& rng) const {
  BipolarVector out = *this;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (rng.bernoulli(p)) out.words_[i / 64] ^= (1ULL << (i % 64));
  }
  return out;
}

std::vector<int> BipolarVector::to_values() const {
  std::vector<int> out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) out[i] = get(i);
  return out;
}

std::vector<std::int8_t> BipolarVector::to_i8() const {
  std::vector<std::int8_t> out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) out[i] = static_cast<std::int8_t>(get(i));
  return out;
}

std::uint64_t BipolarVector::hash() const {
  // Word-wise FNV-style mix with an extra xorshift (not util::Fnv1a, which
  // is byte-wise): the cycle detector compares these values, so a change
  // can move where a deterministic run stops.
  std::uint64_t h = util::kFnvOffset ^ dim_;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= util::kFnvPrime;
    h ^= h >> 29;
  }
  return h;
}

bool BipolarVector::operator==(const BipolarVector& other) const {
  return dim_ == other.dim_ && words_ == other.words_;
}

void BipolarVector::mask_tail() {
  const std::size_t rem = dim_ % 64;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (1ULL << rem) - 1;
  }
}

SignWriter::SignWriter(std::size_t dim, util::Rng* rng, BipolarVector& out,
                       const kernels::KernelBackend& backend)
    : backend_(backend), rng_(rng) {
  if (out.dim() != dim) out = BipolarVector(dim);
  words_ = out.data();
}

void SignWriter::put(const int* values, std::size_t len) {
  // Elements per sign_bits call: the masks of one chunk live on the stack,
  // left uninitialized because sign_bits writes every word put_masks reads.
  constexpr std::size_t kChunkWords = 64;
  std::uint64_t neg[kChunkWords];
  std::uint64_t zero[kChunkWords];
  for (std::size_t i = 0; i < len; i += kChunkWords * 64) {
    const std::size_t n = std::min(len - i, kChunkWords * 64);
    backend_.sign_bits(values + i, n, neg, zero);
    put_masks(neg, zero, words_for(n));
  }
}

void SignWriter::put_masks(const std::uint64_t* neg,
                           const std::uint64_t* ties, std::size_t nw) {
  std::uint64_t* out = words_;
  words_ += nw;
  // A tie reads +1 (bit 0), so without a generator the negative mask is
  // the output.
  if (rng_ == nullptr) {
    std::copy_n(neg, nw, out);
    return;
  }
  // Random bits for tie-breaks are drawn 64 at a time (early resonator
  // iterations can tie every element, and a per-element generator call
  // would dominate the activation), and a tied word takes its
  // popcount(ties) stream bits in one deposit. The stream lives in locals:
  // `out` may alias the members as far as the compiler can tell.
  std::uint64_t rnd = rnd_;
  int left = rnd_left_;
  for (std::size_t w = 0; w < nw; ++w) {
    std::uint64_t word = neg[w];
    const std::uint64_t tied = ties[w];
    if (tied != 0) {
      // A whole tied word takes 64 stream bits as they are.
      const bool whole = tied == ~std::uint64_t{0};
      const int need = whole ? 64 : std::popcount(tied);
      std::uint64_t bits = rnd;
      if (need <= left) {
        rnd = need == 64 ? 0 : rnd >> need;
        left -= need;
      } else {
        // left < need <= 64: one draw covers the rest.
        const std::uint64_t next = rng_->bits64();
        bits |= next << left;
        const int used = need - left;
        rnd = used == 64 ? 0 : next >> used;
        left = 64 - used;
      }
      word |= whole ? bits : backend_.deposit(bits, tied);
    }
    out[w] = word;
  }
  rnd_ = rnd;
  rnd_left_ = left;
}

BipolarVector sign_of(std::span<const int> counts) {
  BipolarVector v;
  sign_of(counts, v);
  return v;
}

BipolarVector sign_of(std::span<const int> counts, util::Rng& rng) {
  BipolarVector v;
  sign_of(counts, rng, v);
  return v;
}

void sign_of(std::span<const int> counts, BipolarVector& out) {
  SignWriter(counts.size(), nullptr, out, kernels::active())
      .put(counts.data(), counts.size());
}

void sign_of(std::span<const int> counts, util::Rng& rng, BipolarVector& out) {
  SignWriter(counts.size(), &rng, out, kernels::active())
      .put(counts.data(), counts.size());
}

}  // namespace h3dfact::hdc
