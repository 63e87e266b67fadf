#include "io/codec.hpp"

#include <string>
#include <string_view>
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

  const std::size_t per_row = (static_cast<std::size_t>(dim) + 63) / 64;
  auto holder = std::make_shared<CodebookHolder>(std::move(artifact));
  std::vector<hdc::Codebook> books;
  books.reserve(factors);
  for (std::size_t f = 0; f < factors; ++f) {
    std::size_t n_words = 0;
    const std::uint64_t* words =
        holder->artifact.section_words(*word_sections[f], &n_words);
    const std::size_t want =
        static_cast<std::size_t>(book_meta[f].size) * per_row;
    if (n_words != want) {
      throw ArtifactError(path, "codebook-words section for factor " +
                                    std::to_string(f) + " holds " +
                                    std::to_string(n_words) +
                                    " words, expected " +
                                    std::to_string(want));
    }
    // Borrow the rows in place: the holder owns the backing bytes (mmap or
    // heap image) for as long as any copy of the set lives.
    books.push_back(hdc::Codebook::from_packed(
        static_cast<std::size_t>(dim),
        static_cast<std::size_t>(book_meta[f].size), words, n_words,
        book_meta[f].name, /*borrow=*/true));
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
  const std::size_t per_item = (static_cast<std::size_t>(dim) + 63) / 64;
  if (n_words != n_items * per_item) {
    throw ArtifactError(path, "item-memory-words holds " +
                                  std::to_string(n_words) +
                                  " words, expected " +
                                  std::to_string(n_items * per_item));
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

// --- resonator snapshots ----------------------------------------------------

void add_resonator_snapshot(ArtifactWriter& writer,
                            const resonator::ResonatorSnapshot& snapshot) {
  const std::size_t dim = snapshot.query.dim();
  const std::size_t factors = snapshot.estimates.size();
  std::string out;
  util::put_u64(out, dim);
  util::put_u64(out, factors);
  util::put_u64(out, snapshot.codebook_fingerprint);
  util::put_u64(out, snapshot.options_digest);
  util::put_u64(out, snapshot.iteration);
  util::put_u8(out, snapshot.ground_truth_known ? 1 : 0);
  util::put_u64(out, snapshot.ground_truth.size());
  for (std::size_t idx : snapshot.ground_truth) util::put_u64(out, idx);
  util::put_f64(out, snapshot.query_noise);
  util::put_words(out, snapshot.query.data(), snapshot.query.words());
  for (const hdc::BipolarVector& est : snapshot.estimates) {
    util::put_words(out, est.data(), est.words());
  }
  for (std::size_t d : snapshot.decoded) util::put_u64(out, d);
  util::put_str(out, std::string_view(snapshot.correct_trace.data(),
                                      snapshot.correct_trace.size()));
  for (std::uint64_t s : snapshot.rng.s) util::put_u64(out, s);
  util::put_f64(out, snapshot.rng.cached_gauss);
  util::put_u8(out, snapshot.rng.has_cached_gauss ? 1 : 0);
  util::put_u64(out, snapshot.cycle_seen.size());
  for (const auto& [hash, t] : snapshot.cycle_seen) {
    util::put_u64(out, hash);
    util::put_u64(out, t);
  }
  util::put_u8(out, snapshot.cycle_found.has_value() ? 1 : 0);
  if (snapshot.cycle_found) {
    util::put_u64(out, snapshot.cycle_found->first_seen);
    util::put_u64(out, snapshot.cycle_found->revisit);
  }
  writer.add_section(SectionKind::kResonatorState, std::move(out));
}

resonator::ResonatorSnapshot load_resonator_snapshot(
    const Artifact& artifact) {
  const std::string& path = artifact.path();
  PayloadReader in =
      artifact.reader(artifact.require_one(SectionKind::kResonatorState));
  resonator::ResonatorSnapshot snap;
  const std::uint64_t dim = in.u64();
  // Each factor carries at least its decoded index (a u64) further on.
  const std::size_t factors = in.count(8);
  if (dim == 0 || factors == 0) {
    throw ArtifactError(path, "resonator-state: zero dim or factor count");
  }
  snap.codebook_fingerprint = in.u64();
  snap.options_digest = in.u64();
  snap.iteration = in.u64();
  snap.ground_truth_known = in.u8() != 0;
  const std::size_t n_gt = in.count(8);
  if (n_gt != 0 && n_gt != factors) {
    throw ArtifactError(path, "resonator-state: ground-truth count " +
                                  std::to_string(n_gt) +
                                  " does not match factor count " +
                                  std::to_string(factors));
  }
  const std::vector<std::uint64_t> truth = in.words(n_gt);
  snap.ground_truth.assign(truth.begin(), truth.end());
  snap.query_noise = in.f64();
  const std::size_t per_vec = (static_cast<std::size_t>(dim) + 63) / 64;
  {
    const std::vector<std::uint64_t> qw = in.words(per_vec);
    snap.query = hdc::BipolarVector::from_words(
        static_cast<std::size_t>(dim), qw.data(), qw.size());
  }
  snap.estimates.reserve(factors);
  for (std::size_t f = 0; f < factors; ++f) {
    const std::vector<std::uint64_t> ew = in.words(per_vec);
    snap.estimates.push_back(hdc::BipolarVector::from_words(
        static_cast<std::size_t>(dim), ew.data(), ew.size()));
  }
  const std::vector<std::uint64_t> decoded = in.words(factors);
  snap.decoded.assign(decoded.begin(), decoded.end());
  const std::string trace = in.str();  // u64 length, one byte per entry
  snap.correct_trace.assign(trace.begin(), trace.end());
  for (auto& s : snap.rng.s) s = in.u64();
  snap.rng.cached_gauss = in.f64();
  snap.rng.has_cached_gauss = in.u8() != 0;
  const std::size_t n_cycle = in.count(16);  // (hash, t) u64 pairs
  snap.cycle_seen.reserve(n_cycle);
  for (std::size_t i = 0; i < n_cycle; ++i) {
    const std::uint64_t hash = in.u64();
    const std::uint64_t t = in.u64();
    snap.cycle_seen.emplace_back(hash, static_cast<std::size_t>(t));
  }
  if (in.u8() != 0) {
    resonator::CycleInfo info;
    info.first_seen = static_cast<std::size_t>(in.u64());
    info.revisit = static_cast<std::size_t>(in.u64());
    snap.cycle_found = info;
  }
  in.expect_exhausted();
  return snap;
}

}  // namespace h3dfact::io
