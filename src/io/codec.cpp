#include "io/codec.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace h3dfact::io {

// --- codebook sets ----------------------------------------------------------

void add_codebook_set(ArtifactWriter& writer, const hdc::CodebookSet& set) {
  std::string meta;
  util::put_u64(meta, set.dim());
  util::put_u64(meta, set.factors());
  util::put_u64(meta, hdc::set_fingerprint(set));
  for (std::size_t f = 0; f < set.factors(); ++f) {
    const hdc::Codebook& book = set.book(f);
    util::put_u64(meta, book.size());
    util::put_str(meta, book.name());
  }
  writer.add_section(SectionKind::kCodebookSetMeta, std::move(meta));

  for (std::size_t f = 0; f < set.factors(); ++f) {
    const hdc::Codebook& book = set.book(f);
    std::string words;
    util::put_words(words, book.packed_data(),
                    book.size() * book.words_per_row());
    writer.add_section(SectionKind::kCodebookWords, std::move(words));
  }
}

namespace {

/// Packed words per vector of `dim` elements: ceil(dim / 64) without the
/// wrap of (dim + 63) / 64 near 2^64.
std::size_t words_per_vector(std::uint64_t dim) {
  return static_cast<std::size_t>(dim / 64 + (dim % 64 != 0));
}

/// True when `n_words` is exactly `count` vectors of `per_vec` words,
/// checked by division so that count * per_vec cannot wrap.
bool holds_vectors(std::size_t n_words, std::uint64_t count,
                   std::size_t per_vec) {
  if (per_vec == 0) return n_words == 0;
  return n_words % per_vec == 0 && n_words / per_vec == count;
}

/// Ties the artifact's backing bytes to the set borrowing from them.
struct CodebookHolder {
  Artifact artifact;
  hdc::CodebookSet set;

  explicit CodebookHolder(Artifact&& a) : artifact(std::move(a)) {}
};

}  // namespace

LoadedCodebookSet load_codebook_set(Artifact artifact) {
  const std::string path = artifact.path();
  const SectionInfo& meta_info =
      artifact.require_one(SectionKind::kCodebookSetMeta);
  PayloadReader meta = artifact.reader(meta_info);
  const std::uint64_t dim = meta.u64();
  // Each factor's entry is a u64 size and a u64-prefixed name.
  const std::size_t factors = meta.count(16);
  const std::uint64_t fingerprint = meta.u64();
  if (dim == 0 || factors == 0) {
    throw ArtifactError(path, "codebook-set-meta: zero dim or factor count");
  }
  struct BookMeta {
    std::uint64_t size;
    std::string name;
  };
  std::vector<BookMeta> book_meta;
  book_meta.reserve(factors);
  for (std::size_t f = 0; f < factors; ++f) {
    BookMeta bm;
    bm.size = meta.u64();
    bm.name = meta.str();
    if (bm.size == 0) {
      throw ArtifactError(path, "codebook-set-meta: factor " +
                                    std::to_string(f) + " has zero size");
    }
    book_meta.push_back(std::move(bm));
  }
  meta.expect_exhausted();

  const auto word_sections = artifact.find(SectionKind::kCodebookWords);
  if (word_sections.size() != factors) {
    throw ArtifactError(
        path, "expected " + std::to_string(factors) +
                  " codebook-words sections (one per factor), found " +
                  std::to_string(word_sections.size()));
  }

  const std::size_t per_row = words_per_vector(dim);
  auto holder = std::make_shared<CodebookHolder>(std::move(artifact));
  std::vector<hdc::Codebook> books;
  books.reserve(factors);
  for (std::size_t f = 0; f < factors; ++f) {
    std::size_t n_words = 0;
    const std::uint64_t* words =
        holder->artifact.section_words(*word_sections[f], &n_words);
    if (!holds_vectors(n_words, book_meta[f].size, per_row)) {
      throw ArtifactError(path, "codebook-words section for factor " +
                                    std::to_string(f) + " holds " +
                                    std::to_string(n_words) +
                                    " words, expected " +
                                    std::to_string(book_meta[f].size) +
                                    " rows of " + std::to_string(per_row));
    }
    // Borrow the rows in place: the holder owns the backing bytes (mmap or
    // heap image) for as long as any copy of the set lives.
    try {
      books.push_back(hdc::Codebook::from_packed(
          static_cast<std::size_t>(dim),
          static_cast<std::size_t>(book_meta[f].size), words, n_words,
          book_meta[f].name, /*borrow=*/true));
    } catch (const std::invalid_argument& e) {
      throw ArtifactError(path, "codebook-words section for factor " +
                                    std::to_string(f) + ": " + e.what());
    }
  }
  holder->set = hdc::CodebookSet(std::move(books));

  const std::uint64_t recomputed = hdc::set_fingerprint(holder->set);
  if (recomputed != fingerprint) {
    throw ArtifactError(path, "codebook fingerprint mismatch: stored " +
                                  std::to_string(fingerprint) +
                                  ", recomputed " +
                                  std::to_string(recomputed));
  }

  LoadedCodebookSet out;
  out.mapped = holder->artifact.mapped();
  out.fingerprint = fingerprint;
  out.set = std::shared_ptr<const hdc::CodebookSet>(holder, &holder->set);
  return out;
}

LoadedCodebookSet load_codebook_set(const std::string& path, LoadMode mode) {
  return load_codebook_set(Artifact::load(path, mode));
}

// --- item memories ----------------------------------------------------------

void add_item_memory(ArtifactWriter& writer, const hdc::ItemMemory& memory) {
  std::string meta;
  util::put_u64(meta, memory.dim());
  util::put_u64(meta, memory.size());
  for (std::size_t i = 0; i < memory.size(); ++i) {
    util::put_str(meta, memory.label(i));
  }
  writer.add_section(SectionKind::kItemMemoryMeta, std::move(meta));

  std::string words;
  for (std::size_t i = 0; i < memory.size(); ++i) {
    const hdc::BipolarVector& v = memory.vector(i);
    util::put_words(words, v.data(), v.words());
  }
  writer.add_section(SectionKind::kItemMemoryWords, std::move(words));
}

hdc::ItemMemory load_item_memory(const Artifact& artifact) {
  const std::string& path = artifact.path();
  PayloadReader meta =
      artifact.reader(artifact.require_one(SectionKind::kItemMemoryMeta));
  const std::uint64_t dim = meta.u64();
  const std::size_t n_items = meta.count(8);  // u64-prefixed labels
  std::vector<std::string> labels;
  labels.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) labels.push_back(meta.str());
  meta.expect_exhausted();

  const SectionInfo& words_info =
      artifact.require_one(SectionKind::kItemMemoryWords);
  std::size_t n_words = 0;
  const std::uint64_t* words = artifact.section_words(words_info, &n_words);
  const std::size_t per_item = words_per_vector(dim);
  if (!holds_vectors(n_words, n_items, per_item)) {
    throw ArtifactError(path, "item-memory-words holds " +
                                  std::to_string(n_words) +
                                  " words, expected " +
                                  std::to_string(n_items) + " items of " +
                                  std::to_string(per_item));
  }

  hdc::ItemMemory memory(static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < n_items; ++i) {
    memory.add(labels[i],
               hdc::BipolarVector::from_words(
                   static_cast<std::size_t>(dim), words + i * per_item,
                   per_item));
  }
  return memory;
}

}  // namespace h3dfact::io
