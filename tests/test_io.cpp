// Serialization + warm-start tests (docs/serialization.md): every artifact
// kind round-trips bit-identically through the H3DA container on both the
// heap and mmap read paths, checked-in golden artifacts stay byte-for-byte
// reproducible, corrupt/truncated inputs fail with typed io::ArtifactError
// on every fuzzed boundary (never UB — this suite runs under ASan in CI),
// a worker bound from an artifact answers FactorReply streams bit-identical
// to a seed-rebuilt worker, re-ServeInit with identical parameters is a
// memoized no-op, and an interrupted + resumed resonator solve matches the
// uninterrupted run bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/artifact.hpp"
#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "resonator/resonator.hpp"
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

TEST(IoSnapshot, RoundTripAllFields) {
  const resonator::ProblemGenerator gen = make_generator(128, 3, 16, 21);
  util::Rng rng(77);
  resonator::FactorizationProblem problem = gen.sample_noisy(0.05, rng);

  resonator::ResonatorOptions opts;
  opts.max_iterations = 30;
  opts.record_correct_trace = true;
  const resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);

  std::vector<resonator::ResonatorSnapshot> snaps;
  resonator::SnapshotPolicy policy;
  policy.every = 1;
  policy.ctx = &snaps;
  policy.sink = [](const resonator::ResonatorSnapshot& s, void* ctx) {
    static_cast<std::vector<resonator::ResonatorSnapshot>*>(ctx)->push_back(s);
  };
  (void)net.run(problem, rng, policy);
  ASSERT_FALSE(snaps.empty());
  const resonator::ResonatorSnapshot& snap = snaps.back();

  const std::string path = temp_path("snap_roundtrip.h3da");
  io::ArtifactWriter writer;
  io::add_resonator_snapshot(writer, snap);
  writer.write(path);
  const resonator::ResonatorSnapshot loaded =
      io::load_resonator_snapshot(io::Artifact::load(path));

  EXPECT_EQ(loaded.iteration, snap.iteration);
  EXPECT_EQ(loaded.ground_truth, snap.ground_truth);
  EXPECT_EQ(loaded.ground_truth_known, snap.ground_truth_known);
  EXPECT_EQ(loaded.query_noise, snap.query_noise);
  ASSERT_EQ(loaded.query.dim(), snap.query.dim());
  for (std::size_t w = 0; w < snap.query.words(); ++w) {
    EXPECT_EQ(loaded.query.data()[w], snap.query.data()[w]);
  }
  ASSERT_EQ(loaded.estimates.size(), snap.estimates.size());
  for (std::size_t f = 0; f < snap.estimates.size(); ++f) {
    for (std::size_t w = 0; w < snap.estimates[f].words(); ++w) {
      EXPECT_EQ(loaded.estimates[f].data()[w], snap.estimates[f].data()[w]);
    }
  }
  EXPECT_EQ(loaded.decoded, snap.decoded);
  EXPECT_EQ(loaded.correct_trace, snap.correct_trace);
  EXPECT_EQ(loaded.rng, snap.rng);
  EXPECT_EQ(loaded.cycle_seen, snap.cycle_seen);
  EXPECT_EQ(loaded.cycle_found.has_value(), snap.cycle_found.has_value());
  EXPECT_EQ(loaded.codebook_fingerprint, snap.codebook_fingerprint);
  EXPECT_EQ(loaded.options_digest, snap.options_digest);
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

TEST(IoGolden, ResonatorStateByteIdentical) {
  // h3dfact_pack pack --kind=resonator-state --dim=128 --factors=3 --M=16
  //   --seed=42 --at=2 --cap=40
  util::Rng master(42);
  resonator::ProblemGenerator gen(128, 3, 16, master);
  io::ArtifactWriter writer;
  io::add_codebook_set(writer, gen.codebooks());
  resonator::FactorizationProblem problem = gen.sample(master);
  resonator::ResonatorOptions opts;
  opts.max_iterations = 40;
  const resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);
  std::vector<resonator::ResonatorSnapshot> snaps;
  resonator::SnapshotPolicy policy;
  policy.every = 2;
  policy.ctx = &snaps;
  policy.sink = [](const resonator::ResonatorSnapshot& s, void* ctx) {
    static_cast<std::vector<resonator::ResonatorSnapshot>*>(ctx)->push_back(s);
  };
  (void)net.run(problem, master, policy);
  ASSERT_FALSE(snaps.empty());
  io::add_resonator_snapshot(writer, snaps.front());
  EXPECT_EQ(writer.serialize(),
            read_bytes(golden_path("golden_resonator_state.h3da")));
}

TEST(IoGolden, AllGoldensLoadAndVerify) {
  const io::LoadedCodebookSet cb =
      io::load_codebook_set(golden_path("golden_codebooks.h3da"));
  EXPECT_EQ(cb.set->dim(), 128u);
  const hdc::ItemMemory im = io::load_item_memory(
      io::Artifact::load(golden_path("golden_item_memory.h3da")));
  EXPECT_EQ(im.size(), 3u);
  const io::Artifact rs =
      io::Artifact::load(golden_path("golden_resonator_state.h3da"));
  const resonator::ResonatorSnapshot snap = io::load_resonator_snapshot(rs);
  EXPECT_EQ(snap.iteration, 2u);
  // The snapshot's fingerprint matches the codebooks packed beside it.
  const io::LoadedCodebookSet beside = io::load_codebook_set(
      io::Artifact::load(golden_path("golden_resonator_state.h3da")));
  EXPECT_EQ(snap.codebook_fingerprint, beside.fingerprint);
}

// --- fuzzing: every corruption is a typed error, never UB -------------------

TEST(IoFuzz, TruncationAtEveryLengthFailsTyped) {
  const resonator::ProblemGenerator gen = make_generator(64, 2, 2, 9);
  const std::string full = serialize_codebooks(gen.codebooks());
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
  const resonator::ProblemGenerator gen = make_generator(64, 2, 2, 9);
  const std::string full = serialize_codebooks(gen.codebooks());
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
  EXPECT_THROW(
      (void)io::load_resonator_snapshot(io::Artifact::load(cb_path)),
      io::ArtifactError);

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

  std::string state;
  util::put_u64(state, 64);     // dim
  util::put_u64(state, kHuge);  // factors
  for (int i = 0; i < 3; ++i) util::put_u64(state, 0);  // pins, iteration
  util::put_u8(state, 0);       // ground truth unknown
  util::put_u64(state, 0);      // no ground-truth indices
  util::put_f64(state, 0.0);    // query noise
  util::put_u64(state, 0);      // the query's one word
  state.append(64, '\0');
  EXPECT_THROW((void)io::load_resonator_snapshot(io::Artifact::load(
                   write_one_section("hostile_factors.h3da",
                                     io::SectionKind::kResonatorState,
                                     state))),
               io::ArtifactError);

  // A well-formed snapshot whose limit-cycle table count says 2^40.
  resonator::ResonatorSnapshot snap;
  snap.query = hdc::BipolarVector(64);
  snap.estimates = {hdc::BipolarVector(64)};
  snap.decoded = {0};
  io::ArtifactWriter writer;
  io::add_resonator_snapshot(writer, snap);
  const std::string src_path = temp_path("hostile_cycles_src.h3da");
  writer.write(src_path);
  const io::Artifact src = io::Artifact::load(src_path);
  std::string cycles(src.section_bytes(src.sections().front()));
  // The payload ends with the cycle-table count and the cycle-found flag.
  std::string count;
  util::put_u64(count, std::uint64_t{1} << 40);
  cycles.replace(cycles.size() - 9, 8, count);
  EXPECT_THROW((void)io::load_resonator_snapshot(io::Artifact::load(
                   write_one_section("hostile_cycles.h3da",
                                     io::SectionKind::kResonatorState,
                                     cycles))),
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
  auto state = [](std::uint64_t dim) {
    std::string out;
    util::put_u64(out, dim);
    util::put_u64(out, 1);  // factors
    for (int i = 0; i < 3; ++i) util::put_u64(out, 0);  // pins, iteration
    util::put_u8(out, 0);      // ground truth unknown
    util::put_u64(out, 0);     // no ground-truth indices
    util::put_f64(out, 0.0);   // query noise
    util::put_u64(out, 0);     // decoded index (no query/estimate words)
    util::put_str(out, "");    // correct trace
    for (int i = 0; i < 4; ++i) util::put_u64(out, 1);  // rng words
    util::put_f64(out, 0.0);   // cached gaussian
    util::put_u8(out, 0);      // none cached
    util::put_u64(out, 0);     // no cycle table
    util::put_u8(out, 0);      // no cycle found
    return write_one_section("huge_dim_state.h3da",
                             io::SectionKind::kResonatorState, out);
  };

  for (const std::uint64_t dim : {kMax, kMax - 62}) {
    SCOPED_TRACE(dim);
    EXPECT_THROW((void)io::load_codebook_set(books(dim, 1)),
                 io::ArtifactError);
    EXPECT_THROW(
        (void)io::load_item_memory(io::Artifact::load(items(dim, 1))),
        io::ArtifactError);
    EXPECT_THROW(
        (void)io::load_resonator_snapshot(io::Artifact::load(state(dim))),
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

TEST(WorkerSpaceCache, IdenticalReServeInitDoesNotRegenerate) {
  serve::WorkerSpaceCache cache;
  const sweep::ServeInitFrame init = make_init(3);
  const serve::WorkerSpace& first = cache.bind(init);
  const auto* generator = first.generator.get();
  const serve::WorkerSpace& again = cache.bind(init);
  // The satellite regression: before the cache, every re-ServeInit with
  // identical parameters rebuilt all codebooks from scratch.
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(cache.reuses(), 1u);
  EXPECT_EQ(again.generator.get(), generator);

  // A changed parameter must rebuild (and re-fingerprint).
  const std::uint64_t fp1 = first.fingerprint;
  (void)cache.bind(make_init(4));
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_NE(cache.space().fingerprint, fp1);
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

// --- resumable solves -------------------------------------------------------

TEST(ResonatorResume, InterruptedPlusResumedMatchesUninterrupted) {
  const resonator::ProblemGenerator gen = make_generator(128, 3, 32, 17);
  resonator::ResonatorOptions opts;
  opts.max_iterations = 40;
  opts.record_correct_trace = true;
  const resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);

  util::Rng sample_rng(400);
  const resonator::FactorizationProblem problem =
      gen.sample_noisy(0.08, sample_rng);

  std::vector<resonator::ResonatorSnapshot> snaps;
  resonator::SnapshotPolicy policy;
  policy.every = 1;
  policy.ctx = &snaps;
  policy.sink = [](const resonator::ResonatorSnapshot& s, void* ctx) {
    static_cast<std::vector<resonator::ResonatorSnapshot>*>(ctx)->push_back(s);
  };
  util::Rng full_rng(99);
  const resonator::ResonatorResult full = net.run(problem, full_rng, policy);
  ASSERT_FALSE(snaps.empty());
  ASSERT_GE(full.iterations, 1u);

  // Resume from every captured iteration — each one must reproduce the
  // uninterrupted result bit for bit, including through an artifact
  // round-trip of the snapshot.
  for (const resonator::ResonatorSnapshot& snap : snaps) {
    io::ArtifactWriter writer;
    io::add_resonator_snapshot(writer, snap);
    const std::string path = temp_path("resume.h3da");
    writer.write(path);
    const resonator::ResonatorSnapshot loaded =
        io::load_resonator_snapshot(io::Artifact::load(path));

    util::Rng resume_rng(1);  // overwritten by the snapshot's state
    const resonator::ResonatorResult resumed =
        net.resume(loaded, resume_rng);
    EXPECT_EQ(resumed.solved, full.solved) << "from iter " << snap.iteration;
    EXPECT_EQ(resumed.decoded, full.decoded) << "from iter " << snap.iteration;
    EXPECT_EQ(resumed.iterations, full.iterations)
        << "from iter " << snap.iteration;
    EXPECT_EQ(resumed.hit_iteration_cap, full.hit_iteration_cap)
        << "from iter " << snap.iteration;
    ASSERT_EQ(resumed.cycle.has_value(), full.cycle.has_value())
        << "from iter " << snap.iteration;
    if (full.cycle) {
      EXPECT_EQ(resumed.cycle->first_seen, full.cycle->first_seen);
      EXPECT_EQ(resumed.cycle->revisit, full.cycle->revisit);
    }
    EXPECT_EQ(resumed.correct_trace, full.correct_trace)
        << "from iter " << snap.iteration;
  }
}

TEST(ResonatorResume, MismatchedNetworkIsRejected) {
  const resonator::ProblemGenerator gen = make_generator(128, 3, 16, 17);
  resonator::ResonatorOptions opts;
  opts.max_iterations = 30;
  const resonator::ResonatorNetwork net(gen.codebooks_ptr(), opts);

  util::Rng rng(5);
  resonator::FactorizationProblem problem = gen.sample(rng);
  std::vector<resonator::ResonatorSnapshot> snaps;
  resonator::SnapshotPolicy policy;
  policy.every = 1;
  policy.ctx = &snaps;
  policy.sink = [](const resonator::ResonatorSnapshot& s, void* ctx) {
    static_cast<std::vector<resonator::ResonatorSnapshot>*>(ctx)->push_back(s);
  };
  (void)net.run(problem, rng, policy);
  ASSERT_FALSE(snaps.empty());

  // Different codebooks: fingerprint mismatch.
  const resonator::ProblemGenerator other = make_generator(128, 3, 16, 18);
  const resonator::ResonatorNetwork wrong_set(other.codebooks_ptr(), opts);
  util::Rng r2(1);
  EXPECT_THROW((void)wrong_set.resume(snaps.front(), r2), std::runtime_error);

  // Same codebooks, different dynamics: options digest mismatch.
  resonator::ResonatorOptions other_opts = opts;
  other_opts.max_iterations = 31;
  const resonator::ResonatorNetwork wrong_opts(gen.codebooks_ptr(),
                                               other_opts);
  EXPECT_THROW((void)wrong_opts.resume(snaps.front(), r2),
               std::runtime_error);
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

  sweep::SpecInitFrame spec;
  spec.grid.name = "noise";
  spec.grid.params["dim"] = "1024";
  spec.cell_threads = 2;
  spec.cell_count = 9;
  spec.fingerprint = 0x42;
  spec.artifact_path = "cb.h3da";
  spec.artifact_fingerprint = 7;
  const sweep::SpecInitFrame spec_back =
      sweep::decode_spec_init(sweep::encode_spec_init(spec));
  EXPECT_EQ(spec_back.artifact_path, spec.artifact_path);
  EXPECT_EQ(spec_back.artifact_fingerprint, spec.artifact_fingerprint);
  EXPECT_EQ(spec_back.grid.name, spec.grid.name);

  // Truncating the artifact fields off the payload must fail, not decode
  // as v2 — the version handshake is the compatibility gate.
  const std::string payload = sweep::encode_serve_init(init);
  EXPECT_THROW(
      (void)sweep::decode_serve_init(
          std::string_view(payload).substr(0, payload.size() - 9)),
      std::runtime_error);
}

}  // namespace
