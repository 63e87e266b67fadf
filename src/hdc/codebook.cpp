#include "hdc/codebook.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
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
  build_rows();
}

Codebook::Codebook(std::vector<BipolarVector> vectors, std::string name)
    : name_(std::move(name)), vectors_(std::move(vectors)) {
  if (!vectors_.empty()) {
    dim_ = vectors_.front().dim();
    for (const auto& v : vectors_) {
      if (v.dim() != dim_) throw std::invalid_argument("codebook dim mismatch");
    }
  }
  build_rows();
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
    const std::uint64_t* row = words + m * per_row;
    // The kernels read borrowed rows as they are, so a set bit past dim
    // would change sums that the masked vectors and fingerprint never see.
    if (dim % 64 != 0 && (row[per_row - 1] >> (dim % 64)) != 0) {
      throw std::invalid_argument("from_packed: row " + std::to_string(m) +
                                  " has bits set past dim " +
                                  std::to_string(dim));
    }
    book.vectors_.push_back(BipolarVector::from_words(dim, row, per_row));
  }
  book.build_rows();
  if (borrow) {
    // The kernels stream rows straight from the caller's block (mmap pages
    // shared read-only across workers); drop the just-built owned copy.
    book.packed_.clear();
    book.packed_.shrink_to_fit();
    book.packed_view_ = words;
  }
  return book;
}

void Codebook::build_rows() {
  words_ = vectors_.empty() ? 0 : vectors_.front().words();
  packed_.resize(vectors_.size() * words_);
  for (std::size_t m = 0; m < vectors_.size(); ++m) {
    std::copy(vectors_[m].data(), vectors_[m].data() + words_,
              packed_.begin() + static_cast<std::ptrdiff_t>(m * words_));
  }
  // The superposition votes Σ_m x_m[d] are the projection with every
  // coefficient 1.
  counts_ = project(std::vector<int>(vectors_.size(), 1));
}

namespace {

// The rows of one item's nonzero coefficients (pointers to their first
// packed word) and those coefficients: the list project_rows walks per
// word. Per-thread scratch, so a warm thread projects without allocating.
struct RowList {
  std::vector<const std::uint64_t*> rows;
  std::vector<int> coeffs;
};

RowList& nonzero_rows(const std::uint64_t* packed, std::size_t words,
                      std::span<const int> coeffs) {
  thread_local RowList list;
  list.rows.clear();
  list.coeffs.clear();
  for (std::size_t m = 0; m < coeffs.size(); ++m) {
    if (coeffs[m] == 0) continue;
    list.rows.push_back(packed + m * words);
    list.coeffs.push_back(coeffs[m]);
  }
  return list;
}

// Elements per fused projection chunk: the chunk's sums live on the stack.
constexpr std::size_t kSignChunk = 4096;

// Hands an item's sign and tie masks to `writer` a stack chunk at a time:
// masks(w, neg, tie) gives word w's. The bits past `dim` are cleared here,
// since masks built from constants or complements set them.
template <typename Masks>
void put_mask_words(std::size_t dim, SignWriter& writer, Masks masks) {
  constexpr std::size_t kChunkWords = kSignChunk / 64;
  // Left uninitialized: masks() writes every word put_masks reads.
  std::uint64_t neg[kChunkWords];
  std::uint64_t tie[kChunkWords];
  const std::size_t nw = dim / 64 + (dim % 64 != 0);
  for (std::size_t w0 = 0; w0 < nw; w0 += kChunkWords) {
    const std::size_t n = std::min(nw - w0, kChunkWords);
    for (std::size_t i = 0; i < n; ++i) masks(w0 + i, neg[i], tie[i]);
    if (w0 + n == nw && dim % 64 != 0) {
      const std::uint64_t live = (std::uint64_t{1} << (dim % 64)) - 1;
      neg[n - 1] &= live;
      tie[n - 1] &= live;
    }
    writer.put_masks(neg, tie, n);
  }
}

// The packed path of project_sign, for items whose signs follow from at
// most two of their rows without summing:
//  - no nonzero coefficient: every sum is 0, so every element ties;
//  - one dominant coefficient, 2|c| > Σ|c| with Σ|c| < 2^31: no sum wraps
//    and the other rows cannot cancel it, so the signs are its row (the
//    complement for c < 0) and nothing ties;
//  - two coefficients: each sum is one of four values, one per bit
//    pattern of the two rows, in project_rows' wrapping arithmetic, so
//    the masks are a truth table over the row words.
// Returns false for any other item, which the caller sums.
bool put_packed(const RowList& list, std::size_t dim, SignWriter& writer) {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  const std::size_t k = list.rows.size();
  if (k == 0) {
    put_mask_words(dim, writer,
                   [](std::size_t, std::uint64_t& neg, std::uint64_t& tie) {
                     neg = 0;
                     tie = kAll;
                   });
    return true;
  }
  std::uint64_t sum = 0;  // Σ|c|, each term at most 2^31
  std::uint64_t top = 0;
  std::size_t top_j = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto mag = static_cast<std::uint64_t>(
        std::abs(static_cast<long long>(list.coeffs[j])));
    sum += mag;
    if (mag > top) {
      top = mag;
      top_j = j;
    }
  }
  if (2 * top > sum && sum < (std::uint64_t{1} << 31)) {
    const std::uint64_t* row = list.rows[top_j];
    const std::uint64_t flip = list.coeffs[top_j] < 0 ? kAll : 0;
    put_mask_words(dim, writer,
                   [&](std::size_t w, std::uint64_t& neg, std::uint64_t& tie) {
                     neg = row[w] ^ flip;
                     tie = 0;
                   });
    return true;
  }
  if (k != 2) return false;
  // Pattern p = b0 + 2·b1 sums to C − 2c0·b0 − 2c1·b1 (mod 2^32).
  const auto c0 = static_cast<std::uint32_t>(list.coeffs[0]);
  const auto c1 = static_cast<std::uint32_t>(list.coeffs[1]);
  const std::uint32_t total = c0 + c1;
  const std::uint32_t y[4] = {total, total - 2u * c0, total - 2u * c1,
                              total - 2u * c0 - 2u * c1};
  std::uint64_t neg_of[4];
  std::uint64_t tie_of[4];
  for (int p = 0; p < 4; ++p) {
    neg_of[p] = (y[p] >> 31) != 0 ? kAll : 0;
    tie_of[p] = y[p] == 0 ? kAll : 0;
  }
  const std::uint64_t* r0 = list.rows[0];
  const std::uint64_t* r1 = list.rows[1];
  put_mask_words(
      dim, writer, [&](std::size_t w, std::uint64_t& neg, std::uint64_t& tie) {
        const std::uint64_t a = r0[w];
        const std::uint64_t b = r1[w];
        const std::uint64_t pattern[4] = {~a & ~b, a & ~b, ~a & b, a & b};
        neg = 0;
        tie = 0;
        for (int p = 0; p < 4; ++p) {
          neg |= pattern[p] & neg_of[p];
          tie |= pattern[p] & tie_of[p];
        }
      });
  return true;
}

}  // namespace

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
  std::vector<int> y(dim_);
  const RowList& list = nonzero_rows(packed_data(), words_, coeffs);
  backend.project_rows(list.rows.data(), list.coeffs.data(), list.rows.size(),
                       dim_, y.data());
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
  // Each item of the item-major block is written in place from its own
  // coefficients, so batch sub-ranges own disjoint items at any thread
  // count.
  auto project_items = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const RowList& list =
          nonzero_rows(packed_data(), words_, coeffs.item_span(b));
      backend.project_rows(list.rows.data(), list.coeffs.data(),
                           list.rows.size(), dim_, y.data.data() + b * dim_);
    }
  };
  if (kM * kB * dim_ >= kernels::active_policy().parallel_min_work) {
    kernels::KernelPool::instance().parallel_for(kB, project_items);
  } else {
    project_items(0, kB);
  }
  return y;
}

void Codebook::project_sign(std::span<const std::vector<int>> coeffs,
                            std::span<util::Rng* const> rngs,
                            std::span<BipolarVector> out,
                            const kernels::KernelBackend& backend) const {
  if (rngs.size() != coeffs.size() || out.size() != coeffs.size()) {
    throw std::invalid_argument("batch size mismatch in project_sign");
  }
  for (const auto& c : coeffs) {
    if (c.size() != vectors_.size()) {
      throw std::invalid_argument("coefficient count mismatch in project_sign");
    }
  }
  const std::size_t kB = coeffs.size();
  // One item: the nonzero rows' sums for a chunk of elements go straight
  // from project_rows into stack scratch and out through the comparator;
  // the row pointers then step to the next chunk's words.
  auto sign_items = [&](std::size_t b0, std::size_t b1) {
    // Left uninitialized: project_rows writes every element put() reads,
    // and zeroing 16 KB per call would cost about as much as the pass.
    alignas(64) int chunk[kSignChunk];
    for (std::size_t b = b0; b < b1; ++b) {
      RowList& list = nonzero_rows(packed_data(), words_, coeffs[b]);
      SignWriter writer(dim_, rngs[b], out[b], backend);
      if (put_packed(list, dim_, writer)) continue;
      for (std::size_t i = 0; i < dim_; i += kSignChunk) {
        if (i != 0) {
          for (auto& row : list.rows) row += kSignChunk / 64;
        }
        const std::size_t len = std::min(dim_ - i, kSignChunk);
        backend.project_rows(list.rows.data(), list.coeffs.data(),
                             list.rows.size(), len, chunk);
        writer.put(chunk, len);
      }
    }
  };
  if (vectors_.size() * kB * dim_ >=
      kernels::active_policy().parallel_min_work) {
    kernels::KernelPool::instance().parallel_for(kB, sign_items);
  } else {
    sign_items(0, kB);
  }
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
