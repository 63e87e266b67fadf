#include "hdc/codebook.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

// All arithmetic routes through the multi-ISA kernel backend layer
// (scalar/SSE2/AVX2/AVX-512/NEON, capability-scored at runtime): see
// hdc/kernels/backend.hpp. Batched entry points additionally consult the
// kernel policy (per-call vs tiled crossover) and fan large passes across
// the process-wide KernelPool — bit-identical at any thread count by the
// pool's determinism contract.
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/policy.hpp"
#include "hdc/kernels/thread_pool.hpp"
#include "util/hash.hpp"

namespace h3dfact::hdc {

std::vector<int> CoeffBlock::item(std::size_t b) const {
  const std::span<const int> v = item_span(b);
  return {v.begin(), v.end()};
}

void CoeffBlock::set_item(std::size_t b, const std::vector<int>& values) {
  if (values.size() != size) {
    throw std::invalid_argument("CoeffBlock item length mismatch");
  }
  std::copy(values.begin(), values.end(),
            data.begin() + static_cast<std::ptrdiff_t>(b * size));
}

CoeffBlock CoeffBlock::from_items(const std::vector<std::vector<int>>& items) {
  CoeffBlock block;
  if (items.empty()) return block;
  block = CoeffBlock(items.front().size(), items.size());
  for (std::size_t b = 0; b < items.size(); ++b) block.set_item(b, items[b]);
  return block;
}

Codebook::Codebook(std::size_t dim, std::size_t size, util::Rng& rng,
                   std::string name)
    : dim_(dim), name_(std::move(name)) {
  vectors_.reserve(size);
  for (std::size_t m = 0; m < size; ++m) {
    vectors_.push_back(BipolarVector::random(dim, rng));
  }
  build_dense();
}

Codebook::Codebook(std::vector<BipolarVector> vectors, std::string name)
    : name_(std::move(name)), vectors_(std::move(vectors)) {
  if (!vectors_.empty()) {
    dim_ = vectors_.front().dim();
    for (const auto& v : vectors_) {
      if (v.dim() != dim_) throw std::invalid_argument("codebook dim mismatch");
    }
  }
  build_dense();
}

Codebook Codebook::from_packed(std::size_t dim, std::size_t size,
                               const std::uint64_t* words, std::size_t n_words,
                               std::string name, bool borrow) {
  // ceil(dim / 64), and the count checked by division: neither can wrap.
  const std::size_t per_row = dim / 64 + (dim % 64 != 0);
  if (per_row == 0 ? n_words != 0
                   : n_words % per_row != 0 || n_words / per_row != size) {
    throw std::invalid_argument("from_packed: word count " +
                                std::to_string(n_words) + " is not " +
                                std::to_string(size) + " rows of " +
                                std::to_string(per_row) + " words");
  }
  Codebook book;
  book.dim_ = dim;
  book.name_ = std::move(name);
  book.vectors_.reserve(size);
  for (std::size_t m = 0; m < size; ++m) {
    book.vectors_.push_back(
        BipolarVector::from_words(dim, words + m * per_row, per_row));
  }
  book.build_dense();
  if (borrow) {
    // The kernels stream rows straight from the caller's block (mmap pages
    // shared read-only across workers); drop the just-built owned copy.
    book.packed_.clear();
    book.packed_.shrink_to_fit();
    book.packed_view_ = words;
  }
  return book;
}

void Codebook::build_dense() {
  words_ = vectors_.empty() ? 0 : vectors_.front().words();
  dense_.resize(vectors_.size() * dim_);
  counts_.assign(dim_, 0);
  for (std::size_t m = 0; m < vectors_.size(); ++m) {
    // Unpack word by word (bit 1 encodes −1) and add the row's votes.
    const std::uint64_t* src = vectors_[m].data();
    std::int8_t* row = dense_.data() + m * dim_;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t end = std::min(dim_ - w * 64, std::size_t{64});
      for (std::size_t j = 0; j < end; ++j) {
        const int v = 1 - 2 * static_cast<int>((src[w] >> j) & 1u);
        row[w * 64 + j] = static_cast<std::int8_t>(v);
        counts_[w * 64 + j] += v;
      }
    }
  }
  packed_.resize(vectors_.size() * words_);
  for (std::size_t m = 0; m < vectors_.size(); ++m) {
    std::copy(vectors_[m].data(), vectors_[m].data() + words_,
              packed_.begin() + static_cast<std::ptrdiff_t>(m * words_));
  }
}

std::vector<int> Codebook::similarity(const BipolarVector& u) const {
  return similarity(u, kernels::active());
}

std::vector<int> Codebook::similarity(
    const BipolarVector& u, const kernels::KernelBackend& backend) const {
  if (u.dim() != dim_) throw std::invalid_argument("dim mismatch in similarity");
  std::vector<int> a(vectors_.size());
  const std::uint64_t* uw = u.data();
  backend.similarity_tile(packed_data(), words_, vectors_.size(), &uw, 1,
                          words_, static_cast<long long>(dim_), a.data(), 1);
  return a;
}

std::vector<int> Codebook::project(const std::vector<int>& coeffs) const {
  return project(coeffs, kernels::active());
}

std::vector<int> Codebook::project(
    const std::vector<int>& coeffs,
    const kernels::KernelBackend& backend) const {
  if (coeffs.size() != vectors_.size()) {
    throw std::invalid_argument("coefficient count mismatch in project");
  }
  std::vector<int> y(dim_, 0);
  for (std::size_t m = 0; m < vectors_.size(); ++m) {
    const int a = coeffs[m];
    if (a == 0) continue;
    backend.axpy_row(a, dense_.data() + m * dim_, y.data(), dim_);
  }
  return y;
}

CoeffBlock Codebook::similarity_batch(std::span<const BipolarVector> us) const {
  return similarity_batch(us, kernels::active());
}

CoeffBlock Codebook::similarity_batch(
    std::span<const BipolarVector> us,
    const kernels::KernelBackend& backend) const {
  CoeffBlock a(vectors_.size(), us.size());
  for (const auto& u : us) {
    if (u.dim() != dim_) {
      throw std::invalid_argument("dim mismatch in similarity_batch");
    }
  }
  const std::size_t kB = us.size();
  const std::size_t kM = vectors_.size();
  if (kB == 0 || kM == 0) return a;
  std::vector<const std::uint64_t*> queries(kB);
  for (std::size_t b = 0; b < kB; ++b) queries[b] = us[b].data();
  // The kernel policy picks the loop shape: below the crossover batch one
  // per-call pass streams all rows per query; at/above it a tile of codebook
  // rows stays L1-hot while every query of the batch is scored against it.
  // Either shape computes each sims[m][q] with the same exact integer
  // arithmetic, so the choice never changes results.
  const kernels::KernelPolicy& policy = kernels::active_policy();
  const bool tiled = kernels::use_tiled(policy, kB);
  // sims for rows [m0, m1) of query b land at a.data[b*M + m0 ..): the
  // block is item-major, so the tile writes each query's item in place.
  auto score_rows = [&](std::size_t m_begin, std::size_t m_end) {
    if (!tiled) {
      backend.similarity_tile(packed_data() + m_begin * words_, words_,
                              m_end - m_begin, queries.data(), kB, words_,
                              static_cast<long long>(dim_),
                              a.data.data() + m_begin, kM);
      return;
    }
    constexpr std::size_t kRowTile = 8;
    for (std::size_t m0 = m_begin; m0 < m_end; m0 += kRowTile) {
      const std::size_t m1 = std::min(m0 + kRowTile, m_end);
      backend.similarity_tile(packed_data() + m0 * words_, words_, m1 - m0,
                              queries.data(), kB, words_,
                              static_cast<long long>(dim_),
                              a.data.data() + m0, kM);
    }
  };
  // Row ranges write disjoint entries of every item, so the pool's
  // determinism contract applies directly; small passes stay inline to
  // skip the wake-up cost.
  if (kM * kB * words_ >= policy.parallel_min_work) {
    kernels::KernelPool::instance().parallel_for(kM, score_rows);
  } else {
    score_rows(0, kM);
  }
  return a;
}

CoeffBlock Codebook::project_batch(const CoeffBlock& coeffs) const {
  return project_batch(coeffs, kernels::active());
}

CoeffBlock Codebook::project_batch(
    const CoeffBlock& coeffs, const kernels::KernelBackend& backend) const {
  if (coeffs.size != vectors_.size()) {
    throw std::invalid_argument("coefficient count mismatch in project_batch");
  }
  const std::size_t kB = coeffs.batch;
  CoeffBlock y(dim_, kB);
  if (kB == 0) return y;
  const std::size_t kM = vectors_.size();
  // Each item of the item-major block is one contiguous accumulator for
  // the row-axpy kernel; a dense row services the whole batch while
  // L1-hot. Batch sub-ranges own disjoint items; within a range the m-loop
  // order is the sequential one, so accumulation order per element is
  // unchanged at any thread count.
  auto accumulate = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t m = 0; m < kM; ++m) {
      const std::int8_t* row = dense_.data() + m * dim_;
      for (std::size_t b = b0; b < b1; ++b) {
        const int c = coeffs.at(m, b);
        if (c != 0) backend.axpy_row(c, row, y.data.data() + b * dim_, dim_);
      }
    }
  };
  if (kM * kB * dim_ >= kernels::active_policy().parallel_min_work) {
    kernels::KernelPool::instance().parallel_for(kB, accumulate);
  } else {
    accumulate(0, kB);
  }
  return y;
}

BipolarVector Codebook::resonate(const BipolarVector& u) const {
  return sign_of(project(similarity(u)));
}

std::size_t Codebook::nearest(const BipolarVector& u) const {
  if (vectors_.empty()) throw std::logic_error("nearest on empty codebook");
  auto sims = similarity(u);
  std::size_t best = 0;
  for (std::size_t m = 1; m < sims.size(); ++m) {
    if (sims[m] > sims[best]) best = m;
  }
  return best;
}

BipolarVector Codebook::superposition() const { return sign_of(counts_); }

BipolarVector Codebook::superposition(util::Rng& rng) const {
  return sign_of(counts_, rng);
}

CodebookSet::CodebookSet(std::size_t dim, std::size_t factors, std::size_t size,
                         util::Rng& rng)
    : dim_(dim) {
  books_.reserve(factors);
  for (std::size_t f = 0; f < factors; ++f) {
    books_.emplace_back(dim, size, rng, "factor" + std::to_string(f));
  }
}

CodebookSet::CodebookSet(std::vector<Codebook> books) : books_(std::move(books)) {
  if (!books_.empty()) {
    dim_ = books_.front().dim();
    for (const auto& b : books_) {
      if (b.dim() != dim_) throw std::invalid_argument("codebook set dim mismatch");
    }
  }
}

BipolarVector CodebookSet::compose(const std::vector<std::size_t>& indices) const {
  BipolarVector s;
  compose(indices, s);
  return s;
}

void CodebookSet::compose(const std::vector<std::size_t>& indices,
                          BipolarVector& out) const {
  if (indices.size() != books_.size()) {
    throw std::invalid_argument("index count must equal factor count");
  }
  out = books_[0].vector(indices[0]);
  for (std::size_t f = 1; f < books_.size(); ++f) {
    out.bind_inplace(books_[f].vector(indices[f]));
  }
}

double CodebookSet::search_space() const {
  double total = 1.0;
  for (const auto& b : books_) total *= static_cast<double>(b.size());
  return total;
}

std::uint64_t set_fingerprint(const CodebookSet& set) {
  util::Fnv1a h;
  h.u64(set.dim()).u64(set.factors());
  for (std::size_t f = 0; f < set.factors(); ++f) {
    const Codebook& book = set.book(f);
    h.u64(book.size());
    for (std::size_t m = 0; m < book.size(); ++m) {
      const BipolarVector& v = book.vector(m);
      for (std::size_t w = 0; w < v.words(); ++w) h.u64(v.data()[w]);
    }
  }
  return h.digest();
}

}  // namespace h3dfact::hdc
