#include "hdc/hypervector.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/hash.hpp"

namespace h3dfact::hdc {

namespace {
std::size_t words_for(std::size_t dim) { return (dim + 63) / 64; }
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
  long long disagree = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    disagree += std::popcount(words_[w] ^ other.words_[w]);
  }
  // agreements - disagreements = D - 2*disagreements (the −1's counter law).
  return static_cast<long long>(dim_) - 2 * disagree;
}

double BipolarVector::cosine(const BipolarVector& other) const {
  if (dim_ == 0) return 0.0;
  return static_cast<double>(dot(other)) / static_cast<double>(dim_);
}

double BipolarVector::hamming(const BipolarVector& other) const {
  if (dim_ != other.dim_) throw std::invalid_argument("dim mismatch in hamming");
  if (dim_ == 0) return 0.0;
  long long disagree = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    disagree += std::popcount(words_[w] ^ other.words_[w]);
  }
  return static_cast<double>(disagree) / static_cast<double>(dim_);
}

BipolarVector BipolarVector::permute(long long k) const {
  BipolarVector out(dim_);
  if (dim_ == 0) return out;
  const auto d = static_cast<long long>(dim_);
  long long shift = ((k % d) + d) % d;
  for (std::size_t i = 0; i < dim_; ++i) {
    const std::size_t j = (i + static_cast<std::size_t>(shift)) % dim_;
    out.set(j, get(i));
  }
  return out;
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

BipolarVector BipolarVector::with_exact_flips(std::size_t n, util::Rng& rng) const {
  if (n > dim_) throw std::invalid_argument("cannot flip more elements than dim");
  // Floyd's sampling of n distinct indices.
  BipolarVector out = *this;
  std::vector<bool> chosen(dim_, false);
  for (std::size_t j = dim_ - n; j < dim_; ++j) {
    auto t = static_cast<std::size_t>(rng.below(j + 1));
    std::size_t pick = chosen[t] ? j : t;
    chosen[pick] = true;
    out.words_[pick / 64] ^= (1ULL << (pick % 64));
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
  // is byte-wise): snapshots and the cycle detector store these values.
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

BipolarVector sign_of(const std::vector<int>& counts) {
  BipolarVector v(counts.size());
  std::uint64_t* words = v.data();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    // bit 1 encodes −1; ties (zero) break to +1 (bit 0).
    words[i / 64] |= static_cast<std::uint64_t>(counts[i] < 0) << (i % 64);
  }
  return v;
}

BipolarVector sign_of(const std::vector<int>& counts, util::Rng& rng) {
  BipolarVector v(counts.size());
  std::uint64_t* words = v.data();
  // Random bits for tie-breaks are drawn 64 at a time: early resonator
  // iterations can produce all-zero projections (every element tied), and a
  // per-element generator call would dominate the activation phase.
  std::uint64_t rnd = 0;
  int rnd_left = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int c = counts[i];
    std::uint64_t bit;
    if (c != 0) {
      bit = static_cast<std::uint64_t>(c < 0);
    } else {
      if (rnd_left == 0) {
        rnd = rng.bits64();
        rnd_left = 64;
      }
      bit = rnd & 1u;
      rnd >>= 1;
      --rnd_left;
    }
    words[i / 64] |= bit << (i % 64);
  }
  return v;
}

}  // namespace h3dfact::hdc
