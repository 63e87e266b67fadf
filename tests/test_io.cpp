// Serialization + warm-start tests (docs/serialization.md): every artifact
// kind round-trips bit-identically through the H3DA container on both the
// heap and mmap read paths, checked-in golden artifacts stay byte-for-byte
// reproducible, corrupt/truncated inputs fail with typed io::ArtifactError
// on every fuzzed boundary (never UB — this suite runs under ASan in CI),
// and a worker bound from an artifact answers FactorReply streams
// bit-identical to a seed-rebuilt worker.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/artifact.hpp"
#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "serve/serving.hpp"
#include "sweep/protocol.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace h3dfact;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "h3dfact_io_" + name;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// The exact h3dfact_pack / serve derivation of a codebook set from a seed.
resonator::ProblemGenerator make_generator(std::size_t dim,
                                           std::size_t factors, std::size_t M,
                                           std::uint64_t seed) {
  util::Rng master(seed);
  return resonator::ProblemGenerator(dim, factors, M, master);
}

std::string serialize_codebooks(const hdc::CodebookSet& set) {
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, set);
  return writer.serialize();
}

void expect_sets_equal(const hdc::CodebookSet& a, const hdc::CodebookSet& b) {
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.factors(), b.factors());
  for (std::size_t f = 0; f < a.factors(); ++f) {
    ASSERT_EQ(a.book(f).size(), b.book(f).size()) << "factor " << f;
    EXPECT_EQ(a.book(f).name(), b.book(f).name()) << "factor " << f;
    for (std::size_t m = 0; m < a.book(f).size(); ++m) {
      const hdc::BipolarVector& va = a.book(f).vector(m);
      const hdc::BipolarVector& vb = b.book(f).vector(m);
      ASSERT_EQ(va.words(), vb.words());
      for (std::size_t w = 0; w < va.words(); ++w) {
        ASSERT_EQ(va.data()[w], vb.data()[w])
            << "factor " << f << " vector " << m << " word " << w;
      }
    }
  }
}

// --- round trips ------------------------------------------------------------

TEST(IoCodebooks, RoundTripHeapAndMmapBitIdentical) {
  // dim 200 is not a multiple of 64, so tail masking is exercised too.
  const resonator::ProblemGenerator gen = make_generator(200, 3, 8, 7);
  const std::string path = temp_path("cb_roundtrip.h3da");
  {
    io::ArtifactWriter writer;
    io::add_codebook_set(writer, gen.codebooks());
    writer.write(path);
  }

  const io::LoadedCodebookSet heap =
      io::load_codebook_set(path, io::LoadMode::kHeap);
  EXPECT_FALSE(heap.mapped);
  expect_sets_equal(gen.codebooks(), *heap.set);
  EXPECT_EQ(heap.fingerprint, hdc::set_fingerprint(gen.codebooks()));

  const io::LoadedCodebookSet mapped =
      io::load_codebook_set(path, io::LoadMode::kMmap);
  EXPECT_TRUE(mapped.mapped);
  expect_sets_equal(gen.codebooks(), *mapped.set);
  EXPECT_EQ(mapped.fingerprint, heap.fingerprint);

  // Both load paths borrow the packed rows from the artifact backing, and
  // the similarity kernels must read identical values through them.
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_TRUE(heap.set->book(f).packed_borrowed());
    EXPECT_TRUE(mapped.set->book(f).packed_borrowed());
  }
  util::Rng rng(11);
  const hdc::BipolarVector probe = hdc::BipolarVector::random(200, rng);
  EXPECT_EQ(gen.codebooks().book(0).similarity(probe),
            mapped.set->book(0).similarity(probe));
  EXPECT_EQ(heap.set->book(1).similarity(probe),
            mapped.set->book(1).similarity(probe));
}

TEST(IoCodebooks, LoadedSetOutlivesArtifactHandle) {
  const resonator::ProblemGenerator gen = make_generator(128, 2, 4, 3);
  const std::string path = temp_path("cb_lifetime.h3da");
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  writer.write(path);

  // The aliasing shared_ptr must keep the mapping alive on its own.
  std::shared_ptr<const hdc::CodebookSet> survivor;
  {
    io::LoadedCodebookSet loaded = io::load_codebook_set(path);
    survivor = loaded.set;
  }
  expect_sets_equal(gen.codebooks(), *survivor);
}

TEST(IoItemMemory, RoundTrip) {
  util::Rng rng(5);
  hdc::ItemMemory memory(96);  // tail bits again
  for (int i = 0; i < 4; ++i) {
    memory.add("atom-" + std::to_string(i),
               hdc::BipolarVector::random(96, rng));
  }
  const std::string path = temp_path("im_roundtrip.h3da");
  io::ArtifactWriter writer;
  io::add_item_memory(writer, memory);
  writer.write(path);

  const hdc::ItemMemory loaded =
      io::load_item_memory(io::Artifact::load(path));
  ASSERT_EQ(loaded.size(), memory.size());
  ASSERT_EQ(loaded.dim(), memory.dim());
  for (std::size_t i = 0; i < memory.size(); ++i) {
    EXPECT_EQ(loaded.label(i), memory.label(i));
    for (std::size_t w = 0; w < memory.vector(i).words(); ++w) {
      EXPECT_EQ(loaded.vector(i).data()[w], memory.vector(i).data()[w]);
    }
  }
}

// --- golden artifacts -------------------------------------------------------
// Checked-in files regenerated by the recipe in docs/serialization.md (the
// same derivations h3dfact_pack uses). The writer lays out offsets, digests
// and padding deterministically, so regeneration must be byte-for-byte
// identical on every platform and compiler — the cross-architecture
// stability guarantee of the format.

std::string golden_path(const std::string& name) {
  return std::string(H3DFACT_GOLDEN_DIR) + "/" + name;
}

TEST(IoGolden, CodebooksByteIdentical) {
  const resonator::ProblemGenerator gen = make_generator(128, 3, 4, 42);
  const std::string regenerated = serialize_codebooks(gen.codebooks());
  EXPECT_EQ(regenerated, read_bytes(golden_path("golden_codebooks.h3da")));
}

TEST(IoGolden, ItemMemoryByteIdentical) {
  util::Rng rng(42);
  hdc::ItemMemory memory(96);
  for (int i = 0; i < 3; ++i) {
    memory.add("item" + std::to_string(i),
               hdc::BipolarVector::random(96, rng));
  }
  io::ArtifactWriter writer;
  io::add_item_memory(writer, memory);
  EXPECT_EQ(writer.serialize(),
            read_bytes(golden_path("golden_item_memory.h3da")));
}

TEST(IoGolden, AllGoldensLoadAndVerify) {
  const io::LoadedCodebookSet cb =
      io::load_codebook_set(golden_path("golden_codebooks.h3da"));
  EXPECT_EQ(cb.set->dim(), 128u);
  const hdc::ItemMemory im = io::load_item_memory(
      io::Artifact::load(golden_path("golden_item_memory.h3da")));
  EXPECT_EQ(im.size(), 3u);
}

// --- fuzzing: every corruption is a typed error, never UB -------------------

/// The truncation and flip subject: one artifact holding a codebook set and
/// an item memory, so every section kind of src/io/'s codecs (1-4) is cut
/// and flipped.
std::string fuzz_subject() {
  const resonator::ProblemGenerator gen = make_generator(64, 2, 2, 9);
  util::Rng rng(9);
  hdc::ItemMemory memory(64);
  memory.add("a", hdc::BipolarVector::random(64, rng));
  memory.add("b", hdc::BipolarVector::random(64, rng));
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  io::add_item_memory(writer, memory);
  return writer.serialize();
}

TEST(IoFuzz, TruncationAtEveryLengthFailsTyped) {
  const std::string full = fuzz_subject();
  const std::string path = temp_path("fuzz_truncate.h3da");
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_bytes(path, full.substr(0, len));
    EXPECT_THROW((void)io::Artifact::load(path, io::LoadMode::kHeap),
                 io::ArtifactError)
        << "truncated to " << len << " bytes";
  }
  // The mmap path must reject truncation identically (spot-check the
  // structural boundaries: empty, mid-header, end-of-header, mid-table,
  // end-of-table, mid-payload).
  for (std::size_t len :
       {std::size_t{0}, std::size_t{33}, io::kHeaderBytes,
        io::kHeaderBytes + io::kSectionEntryBytes, full.size() / 2,
        full.size() - 1}) {
    write_bytes(path, full.substr(0, len));
    EXPECT_THROW((void)io::Artifact::load(path, io::LoadMode::kMmap),
                 io::ArtifactError)
        << "mmap, truncated to " << len << " bytes";
  }
}

TEST(IoFuzz, FlippingAnyProtectedByteFailsTyped) {
  const std::string full = fuzz_subject();
  const std::string path = temp_path("fuzz_flip.h3da");

  // Protected bytes: the header, the section table (table digest) and every
  // section payload (per-section digest). Alignment padding between
  // payloads carries no data and is not digest-covered.
  const io::Artifact parsed = [&] {
    write_bytes(path, full);
    return io::Artifact::load(path, io::LoadMode::kHeap);
  }();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.emplace_back(0, io::kHeaderBytes + parsed.sections().size() *
                                                io::kSectionEntryBytes);
  for (const io::SectionInfo& s : parsed.sections()) {
    ranges.emplace_back(static_cast<std::size_t>(s.offset),
                        static_cast<std::size_t>(s.offset + s.bytes));
  }

  for (const auto& [begin, end] : ranges) {
    for (std::size_t i = begin; i < end; ++i) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
      write_bytes(path, mutated);
      EXPECT_THROW((void)io::Artifact::load(path, io::LoadMode::kHeap),
                   io::ArtifactError)
          << "flipped byte " << i;
    }
  }
}

TEST(IoFuzz, WrongKindAndShortPayloadsFailTyped) {
  const resonator::ProblemGenerator gen = make_generator(64, 2, 2, 9);
  const std::string cb_path = temp_path("fuzz_kind_cb.h3da");
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  writer.write(cb_path);

  // Asking a codebook artifact for sections it does not carry.
  EXPECT_THROW((void)io::load_item_memory(io::Artifact::load(cb_path)),
               io::ArtifactError);

  // Kind 5 is retired (it held mid-solve resonator state) and never
  // reused: it names as an unknown kind, and a codebook artifact that still
  // carries one loads its codebook set as if the section were not there.
  EXPECT_EQ(io::section_kind_name(5), "unknown(5)");
  io::ArtifactWriter retired;
  io::add_codebook_set(retired, gen.codebooks());
  retired.add_section(static_cast<io::SectionKind>(5), std::string(24, '\x5'));
  const std::string retired_path = temp_path("fuzz_kind_retired.h3da");
  retired.write(retired_path);
  EXPECT_EQ(io::load_codebook_set(retired_path).fingerprint,
            hdc::set_fingerprint(gen.codebooks()));

  // A structurally valid container whose meta payload is too short must
  // fail in the payload reader with a typed error, not read past the end.
  io::ArtifactWriter bad;
  std::string meta;
  util::put_u64(meta, 64);  // dim only; factors and fingerprint missing
  bad.add_section(io::SectionKind::kCodebookSetMeta, std::move(meta));
  const std::string bad_path = temp_path("fuzz_short_meta.h3da");
  bad.write(bad_path);
  EXPECT_THROW((void)io::load_codebook_set(bad_path), io::ArtifactError);
}

// Codebook rows with a bit set past dim. The fingerprint hashes the masked
// vectors, so such an artifact passes every digest and the fingerprint
// check, but its borrowed rows would reach the kernels with the extra bit
// and read wrong similarities. The load fails typed, naming the path, the
// factor and the row, on both read paths.
TEST(IoFuzz, CodebookBitsPastDimFailTyped) {
  const resonator::ProblemGenerator gen = make_generator(1000, 2, 3, 17);
  const hdc::CodebookSet& set = gen.codebooks();
  // add_codebook_set's layout, with one word of factor 1, row 2 set to
  // `extra` past dim.
  const auto write = [&](const std::string& name, std::uint64_t extra) {
    io::ArtifactWriter writer;
    std::string meta;
    util::put_u64(meta, set.dim());
    util::put_u64(meta, set.factors());
    util::put_u64(meta, hdc::set_fingerprint(set));
    for (std::size_t f = 0; f < set.factors(); ++f) {
      util::put_u64(meta, set.book(f).size());
      util::put_str(meta, set.book(f).name());
    }
    writer.add_section(io::SectionKind::kCodebookSetMeta, std::move(meta));
    for (std::size_t f = 0; f < set.factors(); ++f) {
      const hdc::Codebook& book = set.book(f);
      const std::size_t wpr = book.words_per_row();
      std::vector<std::uint64_t> words(book.packed_data(),
                                       book.packed_data() + book.size() * wpr);
      if (f == 1) words[3 * wpr - 1] |= extra;
      std::string payload;
      util::put_words(payload, words.data(), words.size());
      writer.add_section(io::SectionKind::kCodebookWords, std::move(payload));
    }
    const std::string path = temp_path(name);
    writer.write(path);
    return path;
  };
  const std::string clean = write("fuzz_tail_clean.h3da", 0);
  EXPECT_EQ(io::load_codebook_set(clean).fingerprint,
            hdc::set_fingerprint(set));
  const std::string dirty =
      write("fuzz_tail_dirty.h3da", std::uint64_t{1} << (1000 % 64));
  for (const io::LoadMode mode : {io::LoadMode::kHeap, io::LoadMode::kAuto}) {
    try {
      (void)io::load_codebook_set(dirty, mode);
      ADD_FAILURE() << "bits past dim were accepted";
    } catch (const io::ArtifactError& e) {
      EXPECT_EQ(e.path(), dirty);
      EXPECT_NE(e.detail().find("factor 1"), std::string::npos) << e.what();
      EXPECT_NE(e.detail().find("row 2"), std::string::npos) << e.what();
    }
  }
}

/// A digest-valid artifact holding one section of `kind` with `payload`.
std::string write_one_section(const std::string& name, io::SectionKind kind,
                              std::string payload) {
  const std::string path = temp_path(name);
  io::ArtifactWriter writer;
  writer.add_section(kind, std::move(payload));
  writer.write(path);
  return path;
}

// A count that claims more elements than its section holds fails as a
// typed ArtifactError before it sizes any allocation, never as the
// std::length_error or std::bad_alloc of an oversized reserve.
TEST(IoFuzz, HostileCountsFailTyped) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 58;
  std::string books;
  util::put_u64(books, 64);     // dim
  util::put_u64(books, kHuge);  // factors
  util::put_u64(books, 0);      // fingerprint
  books.append(64, '\0');
  EXPECT_THROW((void)io::load_codebook_set(write_one_section(
                   "hostile_books.h3da", io::SectionKind::kCodebookSetMeta,
                   books)),
               io::ArtifactError);

  std::string items;
  util::put_u64(items, 64);     // dim
  util::put_u64(items, kHuge);  // item count
  items.append(64, '\0');
  EXPECT_THROW((void)io::load_item_memory(io::Artifact::load(
                   write_one_section("hostile_items.h3da",
                                     io::SectionKind::kItemMemoryMeta,
                                     items))),
               io::ArtifactError);

}

// A dim whose word count wraps: (dim + 63) / 64 is 0 at dim = 2^64 − 1 and
// 2^64 − 63, and 128 vectors of 2^57 words (dim = 2^63) are 2^64 words, 0
// after the wrap. Each artifact below is digest-valid and holds no vector
// words, which the wrapped count would accept; every loader must refuse it
// with a typed ArtifactError instead of a zero-word vector of that dim,
// std::length_error or std::bad_alloc.
TEST(IoFuzz, HugeDimFailsTyped) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  auto books = [](std::uint64_t dim, std::uint64_t rows) {
    std::string meta;
    util::put_u64(meta, dim);
    util::put_u64(meta, 1);  // factors
    util::put_u64(meta, 0);  // fingerprint
    util::put_u64(meta, rows);
    util::put_str(meta, "f0");
    io::ArtifactWriter writer;
    writer.add_section(io::SectionKind::kCodebookSetMeta, std::move(meta));
    writer.add_section(io::SectionKind::kCodebookWords, std::string());
    const std::string path = temp_path("huge_dim_books.h3da");
    writer.write(path);
    return path;
  };
  auto items = [](std::uint64_t dim, std::uint64_t n_items) {
    std::string meta;
    util::put_u64(meta, dim);
    util::put_u64(meta, n_items);
    for (std::uint64_t i = 0; i < n_items; ++i) util::put_str(meta, "item");
    io::ArtifactWriter writer;
    writer.add_section(io::SectionKind::kItemMemoryMeta, std::move(meta));
    writer.add_section(io::SectionKind::kItemMemoryWords, std::string());
    const std::string path = temp_path("huge_dim_items.h3da");
    writer.write(path);
    return path;
  };
  for (const std::uint64_t dim : {kMax, kMax - 62}) {
    SCOPED_TRACE(dim);
    EXPECT_THROW((void)io::load_codebook_set(books(dim, 1)),
                 io::ArtifactError);
    EXPECT_THROW(
        (void)io::load_item_memory(io::Artifact::load(items(dim, 1))),
        io::ArtifactError);
  }
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  EXPECT_THROW((void)io::load_codebook_set(books(kHalf, 128)),
               io::ArtifactError);
  EXPECT_THROW(
      (void)io::load_item_memory(io::Artifact::load(items(kHalf, 128))),
      io::ArtifactError);
}

// docs/serialization.md: decoders reject unknown section versions. A
// codebook artifact whose sections all carry version 2 is refused at the
// meta reader; one whose word sections alone do is refused at the word view.
TEST(IoFuzz, UnknownSectionVersionFailsTyped) {
  const resonator::ProblemGenerator gen = make_generator(64, 2, 2, 9);
  const std::string good_path = temp_path("version_src.h3da");
  io::ArtifactWriter good;
  io::add_codebook_set(good, gen.codebooks());
  good.write(good_path);
  const io::Artifact src = io::Artifact::load(good_path);

  for (const bool meta_too : {true, false}) {
    io::ArtifactWriter relabelled;
    for (const io::SectionInfo& s : src.sections()) {
      const auto kind = static_cast<io::SectionKind>(s.kind);
      const bool meta = kind == io::SectionKind::kCodebookSetMeta;
      relabelled.add_section(kind, std::string(src.section_bytes(s)),
                             meta && !meta_too ? 1 : 2);
    }
    const std::string path = temp_path("version2.h3da");
    relabelled.write(path);
    try {
      (void)io::load_codebook_set(path);
      ADD_FAILURE() << "expected ArtifactError, meta_too=" << meta_too;
    } catch (const io::ArtifactError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(meta_too ? "codebook-set-meta" : "codebook-words"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    }
  }
}

TEST(IoFuzz, ErrorMessagesNamePathAndDetail) {
  const std::string path = temp_path("fuzz_named.h3da");
  write_bytes(path, "definitely not an artifact");
  try {
    (void)io::Artifact::load(path, io::LoadMode::kHeap);
    FAIL() << "expected ArtifactError";
  } catch (const io::ArtifactError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_FALSE(e.detail().empty());
  }
}

TEST(IoFuzz, MmapAndHeapSectionsBitIdentical) {
  const resonator::ProblemGenerator gen = make_generator(100, 3, 4, 13);
  const std::string path = temp_path("modes.h3da");
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  writer.write(path);

  const io::Artifact heap = io::Artifact::load(path, io::LoadMode::kHeap);
  const io::Artifact mapped = io::Artifact::load(path, io::LoadMode::kMmap);
  ASSERT_EQ(heap.sections().size(), mapped.sections().size());
  for (std::size_t i = 0; i < heap.sections().size(); ++i) {
    EXPECT_TRUE(heap.section_bytes(heap.sections()[i]) ==
                mapped.section_bytes(mapped.sections()[i]))
        << "section " << i;
  }
}

// --- serve warm-start -------------------------------------------------------

sweep::ServeInitFrame make_init(std::uint64_t seed) {
  sweep::ServeInitFrame init;
  init.dim = 128;
  init.factors = 2;
  init.codebook_size = 4;
  init.max_iterations = 50;
  init.seed = seed;
  return init;
}

TEST(WorkerSpaceCache, RebindReplacesTheSpace) {
  serve::WorkerSpaceCache cache;
  const std::uint64_t fp3 = cache.bind(make_init(3)).fingerprint;
  EXPECT_EQ(cache.bind(make_init(3)).fingerprint, fp3);
  // A changed parameter binds (and fingerprints) the new space.
  const std::uint64_t fp4 = cache.bind(make_init(4)).fingerprint;
  EXPECT_NE(fp4, fp3);
  EXPECT_EQ(cache.space().fingerprint, fp4);
  EXPECT_EQ(cache.rebuilds(), 3u);
}

TEST(WorkerSpaceCache, ArtifactBindFallsBackToSeedOnBadPath) {
  serve::WorkerSpaceCache cache;
  sweep::ServeInitFrame init = make_init(3);
  init.artifact_path = temp_path("does_not_exist.h3da");
  const serve::WorkerSpace& space = cache.bind(init);
  EXPECT_FALSE(space.from_artifact);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(cache.artifact_loads(), 0u);
  // And the fallback still lands on the exact seed-derived codebooks.
  serve::WorkerSpaceCache seed_cache;
  EXPECT_EQ(seed_cache.bind(make_init(3)).fingerprint, space.fingerprint);
}

TEST(WorkerSpaceCache, ArtifactBoundWorkerRepliesBitIdenticalToSeed) {
  const sweep::ServeInitFrame seed_init = make_init(3);
  const std::string path = temp_path("serve_space.h3da");
  const resonator::ProblemGenerator gen = make_generator(128, 2, 4, 3);
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  writer.write(path);

  serve::WorkerSpaceCache cold;
  const serve::WorkerSpace& seed_space = cold.bind(seed_init);

  sweep::ServeInitFrame warm_init = seed_init;
  warm_init.artifact_path = path;
  warm_init.artifact_fingerprint = hdc::set_fingerprint(gen.codebooks());
  serve::WorkerSpaceCache warm;
  const serve::WorkerSpace& artifact_space = warm.bind(warm_init);
  ASSERT_TRUE(artifact_space.from_artifact);
  EXPECT_EQ(warm.artifact_loads(), 1u);
  EXPECT_EQ(warm.rebuilds(), 0u);
  EXPECT_EQ(artifact_space.fingerprint, seed_space.fingerprint);

  // One batch mixing every request shape: seeded clean, seeded noisy,
  // explicit query, and a malformed explicit query (word count).
  sweep::BatchTaskFrame task;
  task.batch_id = 77;
  for (std::uint64_t t = 0; t < 3; ++t) {
    sweep::FactorRequestFrame req;
    req.id = 100 + t;
    req.encoding = sweep::QueryEncoding::kSeeded;
    req.trial_seed = serve::trial_stream_seed(3, t);
    req.flip_prob = t == 2 ? 0.0625 : 0.0;
    task.requests.push_back(req);
  }
  {
    sweep::FactorRequestFrame req;
    req.id = 200;
    req.encoding = sweep::QueryEncoding::kExplicit;
    req.solve_seed = 5;
    const hdc::BipolarVector q = gen.codebooks().compose({1, 3});
    req.query_words.assign(q.data(), q.data() + q.words());
    task.requests.push_back(req);
  }
  {
    sweep::FactorRequestFrame req;
    req.id = 201;
    req.encoding = sweep::QueryEncoding::kExplicit;
    req.query_words = {1, 2, 3};  // wrong word count -> kFailed
    task.requests.push_back(req);
  }

  const sweep::BatchResultFrame a = serve::solve_serve_batch(seed_space, task);
  const sweep::BatchResultFrame b =
      serve::solve_serve_batch(artifact_space, task);
  ASSERT_EQ(a.replies.size(), b.replies.size());
  EXPECT_EQ(a.batch_id, b.batch_id);
  for (std::size_t i = 0; i < a.replies.size(); ++i) {
    const sweep::FactorReplyFrame& ra = a.replies[i];
    const sweep::FactorReplyFrame& rb = b.replies[i];
    EXPECT_EQ(ra.id, rb.id) << "reply " << i;
    EXPECT_EQ(ra.status, rb.status) << "reply " << i;
    EXPECT_EQ(ra.solved, rb.solved) << "reply " << i;
    EXPECT_EQ(ra.correct, rb.correct) << "reply " << i;
    EXPECT_EQ(ra.correct_known, rb.correct_known) << "reply " << i;
    EXPECT_EQ(ra.iterations, rb.iterations) << "reply " << i;
    EXPECT_EQ(ra.decoded, rb.decoded) << "reply " << i;
    EXPECT_EQ(ra.batch, rb.batch) << "reply " << i;
    EXPECT_EQ(ra.error, rb.error) << "reply " << i;
  }
  EXPECT_EQ(a.replies[4].status, sweep::ReplyStatus::kFailed);
}

TEST(WorkerSpaceCache, PinnedFingerprintMismatchFallsBackToSeed) {
  // Artifact holds seed-9 codebooks; the init pins the seed-3 fingerprint.
  const resonator::ProblemGenerator other = make_generator(128, 2, 4, 9);
  const std::string path = temp_path("serve_mismatch.h3da");
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, other.codebooks());
  writer.write(path);

  sweep::ServeInitFrame init = make_init(3);
  init.artifact_path = path;
  init.artifact_fingerprint = 0xdeadbeef;  // pins codebooks nobody has
  serve::WorkerSpaceCache cache;
  const serve::WorkerSpace& space = cache.bind(init);
  EXPECT_FALSE(space.from_artifact);
  EXPECT_EQ(space.fingerprint,
            hdc::set_fingerprint(make_generator(128, 2, 4, 3).codebooks()));
}

// --- protocol v3 ------------------------------------------------------------

TEST(ProtocolV3, ServeInitCarriesArtifactReference) {
  sweep::ServeInitFrame init;
  init.dim = 1024;
  init.factors = 3;
  init.codebook_size = 64;
  init.max_iterations = 100;
  init.seed = 0x1234;
  init.artifact_path = "/var/lib/h3dfact/cb.h3da";
  init.artifact_fingerprint = 0xabcdef0123456789ull;
  const sweep::ServeInitFrame back =
      sweep::decode_serve_init(sweep::encode_serve_init(init));
  EXPECT_TRUE(back == init);

  // Truncating the artifact fields off the payload must fail, not decode
  // as v2 — the version handshake is the compatibility gate.
  const std::string payload = sweep::encode_serve_init(init);
  EXPECT_THROW(
      (void)sweep::decode_serve_init(
          std::string_view(payload).substr(0, payload.size() - 9)),
      std::runtime_error);
}

}  // namespace
