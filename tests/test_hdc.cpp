// Unit + property tests for the hypervector algebra, codebooks, item memory
// and scene encoding.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/encoding.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/vsa.hpp"
#include "util/rng.hpp"

namespace {

namespace kernels = h3dfact::hdc::kernels;
using h3dfact::hdc::BipolarVector;
using h3dfact::hdc::Codebook;
using h3dfact::hdc::CodebookSet;
using h3dfact::hdc::ItemMemory;
using h3dfact::hdc::SceneEncoder;
using h3dfact::util::Rng;

TEST(BipolarVector, DefaultIsAllPlusOne) {
  BipolarVector v(100);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(v.get(i), 1);
}

TEST(BipolarVector, SetGetRoundTrip) {
  BipolarVector v(130);  // crosses a word boundary
  v.set(0, -1);
  v.set(64, -1);
  v.set(129, -1);
  EXPECT_EQ(v.get(0), -1);
  EXPECT_EQ(v.get(1), 1);
  EXPECT_EQ(v.get(64), -1);
  EXPECT_EQ(v.get(129), -1);
}

TEST(BipolarVector, FromValuesRejectsNonBipolar) {
  EXPECT_THROW(BipolarVector::from_values({1, 0, -1}), std::invalid_argument);
}

TEST(BipolarVector, FromValuesToValuesRoundTrip) {
  std::vector<int> vals{1, -1, -1, 1, 1, -1, 1};
  auto v = BipolarVector::from_values(vals);
  EXPECT_EQ(v.to_values(), vals);
}

TEST(BipolarVector, SelfDotEqualsDim) {
  Rng rng(1);
  auto v = BipolarVector::random(1000, rng);
  EXPECT_EQ(v.dot(v), 1000);
  EXPECT_DOUBLE_EQ(v.cosine(v), 1.0);
}

TEST(BipolarVector, NegateGivesMinusDim) {
  Rng rng(2);
  auto v = BipolarVector::random(777, rng);
  EXPECT_EQ(v.dot(v.negate()), -777);
}

TEST(BipolarVector, BindIsSelfInverse) {
  Rng rng(3);
  auto a = BipolarVector::random(512, rng);
  auto b = BipolarVector::random(512, rng);
  EXPECT_TRUE(a.bind(b).bind(b) == a);
}

TEST(BipolarVector, BindIsCommutativeAndAssociative) {
  Rng rng(4);
  auto a = BipolarVector::random(256, rng);
  auto b = BipolarVector::random(256, rng);
  auto c = BipolarVector::random(256, rng);
  EXPECT_TRUE(a.bind(b) == b.bind(a));
  EXPECT_TRUE(a.bind(b).bind(c) == a.bind(b.bind(c)));
}

TEST(BipolarVector, BindMatchesElementwiseProduct) {
  Rng rng(5);
  auto a = BipolarVector::random(200, rng);
  auto b = BipolarVector::random(200, rng);
  auto p = a.bind(b);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(p.get(i), a.get(i) * b.get(i));
  }
}

TEST(BipolarVector, BindDimMismatchThrows) {
  Rng rng(6);
  auto a = BipolarVector::random(100, rng);
  auto b = BipolarVector::random(101, rng);
  EXPECT_THROW((void)a.bind(b), std::invalid_argument);
}

TEST(BipolarVector, RandomVectorsQuasiOrthogonal) {
  Rng rng(7);
  const std::size_t d = 4096;
  auto a = BipolarVector::random(d, rng);
  auto b = BipolarVector::random(d, rng);
  // |cos| should be within ~5 sigma of 0 where sigma = 1/sqrt(D).
  EXPECT_LT(std::abs(a.cosine(b)), 5.0 / std::sqrt(static_cast<double>(d)));
}

TEST(BipolarVector, BindingPreservesDistance) {
  // dist(a⊙c, b⊙c) == dist(a, b): binding is an isometry.
  Rng rng(8);
  auto a = BipolarVector::random(512, rng);
  auto b = BipolarVector::random(512, rng);
  auto c = BipolarVector::random(512, rng);
  EXPECT_EQ(a.bind(c).dot(b.bind(c)), a.dot(b));
}

TEST(BipolarVector, DotMatchesNaiveComputation) {
  Rng rng(9);
  auto a = BipolarVector::random(300, rng);
  auto b = BipolarVector::random(300, rng);
  long long naive = 0;
  for (std::size_t i = 0; i < 300; ++i) naive += a.get(i) * b.get(i);
  EXPECT_EQ(a.dot(b), naive);
}

TEST(BipolarVector, HammingComplementsCosine) {
  Rng rng(10);
  auto a = BipolarVector::random(1024, rng);
  auto b = BipolarVector::random(1024, rng);
  EXPECT_NEAR(a.cosine(b), 1.0 - 2.0 * a.hamming(b), 1e-12);
}

TEST(BipolarVector, WithFlipsProbabilityZeroAndOne) {
  Rng rng(13);
  auto v = BipolarVector::random(256, rng);
  EXPECT_TRUE(v.with_flips(0.0, rng) == v);
  EXPECT_TRUE(v.with_flips(1.0, rng) == v.negate());
}

TEST(BipolarVector, WithFlipsApproximatesRate) {
  Rng rng(14);
  auto v = BipolarVector::random(20000, rng);
  auto n = v.with_flips(0.25, rng);
  EXPECT_NEAR(v.hamming(n), 0.25, 0.02);
}

TEST(BipolarVector, HashDistinguishesAndMatches) {
  Rng rng(16);
  auto a = BipolarVector::random(512, rng);
  auto b = BipolarVector::random(512, rng);
  BipolarVector a2 = a;
  EXPECT_EQ(a.hash(), a2.hash());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BipolarVector, NonMultipleOf64TailStaysMasked) {
  Rng rng(17);
  auto a = BipolarVector::random(70, rng);
  auto n = a.negate();
  EXPECT_EQ(a.dot(n), -70);
  EXPECT_EQ(n.negate().dot(a), 70);
}

// The element loop sign_of ran before the word-parallel sign masks, kept
// as the reference: one bit per element (bit 1 encodes −1), ties to +1, or
// in the random overload to the next bit of a 64-bit stream drawn lazily.
BipolarVector sign_of_element_loop(const std::vector<int>& counts) {
  BipolarVector v(counts.size());
  std::uint64_t* words = v.data();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    words[i / 64] |= static_cast<std::uint64_t>(counts[i] < 0) << (i % 64);
  }
  return v;
}

BipolarVector sign_of_element_loop(const std::vector<int>& counts, Rng& rng) {
  BipolarVector v(counts.size());
  std::uint64_t* words = v.data();
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

// Restores live backend dispatch even when an assertion fails.
struct BackendGuard {
  ~BackendGuard() { kernels::reset_backend(); }
};

// Tie-free, tie-heavy, all-zero and mixed counts. The mixed input cycles
// 64-element blocks of no ties, all ties and sparse ties, so whole tied
// words meet the tie-break stream at every fill level.
std::vector<std::vector<int>> sign_inputs(std::size_t n, Rng& rng) {
  std::vector<int> tie_free(n), tie_heavy(n), zeros(n, 0), mixed(n);
  for (std::size_t i = 0; i < n; ++i) {
    tie_free[i] = static_cast<int>(rng.range(1, 100)) * rng.bipolar();
    tie_heavy[i] = rng.bernoulli(0.7) ? 0 : static_cast<int>(rng.range(-9, 9));
    switch ((i / 64) % 4) {
      case 0: mixed[i] = tie_free[i]; break;
      case 2: mixed[i] = rng.bernoulli(0.1) ? 0 : tie_free[i]; break;
      default: mixed[i] = 0; break;
    }
  }
  return {tie_free, tie_heavy, zeros, mixed};
}

TEST(SignOf, MatchesElementLoopBitForBit) {
  BackendGuard guard;
  for (const kernels::KernelBackend* backend : kernels::available()) {
    kernels::force_backend(backend->name);
    Rng input_rng(19);
    for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 1000u, 1024u, 4096u,
                          4161u, 10000u}) {
      Rng got_rng(n);
      Rng want_rng(n);
      for (const auto& counts : sign_inputs(n, input_rng)) {
        ASSERT_EQ(h3dfact::hdc::sign_of(counts), sign_of_element_loop(counts))
            << backend->name << " n=" << n;
        // One generator carried across calls: the tie stream must leave it
        // exactly where the element loop leaves it, call after call.
        ASSERT_EQ(h3dfact::hdc::sign_of(counts, got_rng),
                  sign_of_element_loop(counts, want_rng))
            << backend->name << " n=" << n;
        ASSERT_EQ(got_rng.save_state(), want_rng.save_state())
            << backend->name << " n=" << n;
      }
    }
  }
}

TEST(SignOf, DeterministicTieBreakIsPlusOne) {
  auto v = h3dfact::hdc::sign_of(std::vector<int>{5, 0, -3});
  EXPECT_EQ(v.get(0), 1);
  EXPECT_EQ(v.get(1), 1);
  EXPECT_EQ(v.get(2), -1);
}

TEST(SignOf, RandomTieBreakIsBalanced) {
  Rng rng(18);
  std::vector<int> zeros(10000, 0);
  auto v = h3dfact::hdc::sign_of(zeros, rng);
  long long sum = 0;
  for (std::size_t i = 0; i < zeros.size(); ++i) sum += v.get(i);
  EXPECT_LT(std::abs(sum), 500);
}

TEST(Codebook, SimilarityOfMemberIsDim) {
  Rng rng(20);
  Codebook cb(512, 16, rng);
  auto sims = cb.similarity(cb.vector(5));
  EXPECT_EQ(sims[5], 512);
  for (std::size_t m = 0; m < 16; ++m) {
    if (m != 5) {
      EXPECT_LT(std::abs(sims[m]), 150);
    }
  }
}

TEST(Codebook, SimilarityMatchesDot) {
  Rng rng(21);
  Codebook cb(256, 8, rng);
  auto u = BipolarVector::random(256, rng);
  auto sims = cb.similarity(u);
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_EQ(sims[m], cb.vector(m).dot(u));
  }
}

TEST(Codebook, ProjectOneHotRecoversVector) {
  Rng rng(22);
  Codebook cb(128, 10, rng);
  std::vector<int> coeffs(10, 0);
  coeffs[3] = 1;
  auto y = cb.project(coeffs);
  for (std::size_t d = 0; d < 128; ++d) {
    EXPECT_EQ(y[d], cb.vector(3).get(d));
  }
}

TEST(Codebook, ProjectIsLinear) {
  Rng rng(23);
  Codebook cb(64, 5, rng);
  std::vector<int> a{1, -2, 0, 3, 1};
  std::vector<int> b{0, 1, 1, -1, 2};
  auto ya = cb.project(a);
  auto yb = cb.project(b);
  std::vector<int> ab(5);
  for (int i = 0; i < 5; ++i) ab[i] = a[i] + b[i];
  auto yab = cb.project(ab);
  for (std::size_t d = 0; d < 64; ++d) EXPECT_EQ(yab[d], ya[d] + yb[d]);
}

TEST(Codebook, NearestFindsNoisyMember) {
  Rng rng(25);
  Codebook cb(1024, 32, rng);
  auto noisy = cb.vector(7).with_flips(0.2, rng);
  EXPECT_EQ(cb.nearest(noisy), 7u);
}

TEST(Codebook, SuperpositionCorrelatesWithAllMembers) {
  Rng rng(26);
  Codebook cb(2048, 9, rng);
  auto sup = cb.superposition();
  for (std::size_t m = 0; m < 9; ++m) {
    EXPECT_GT(sup.cosine(cb.vector(m)), 0.1);
  }
}

// The votes behind superposition() are counted once per codebook; the
// bundle must still be the sign of Σ_m x_m[d] with the same tie draws, for
// owned rows and for rows borrowed from a packed block (the mmap path).
TEST(Codebook, SuperpositionMatchesMemberMajority) {
  Rng rng(28);
  for (std::size_t M : {7u, 16u}) {
    const std::size_t dim = 1000;
    const Codebook owned(dim, M, rng);
    const std::vector<std::uint64_t> packed(
        owned.packed_data(),
        owned.packed_data() + owned.size() * owned.words_per_row());
    const Codebook borrowed = Codebook::from_packed(
        dim, M, packed.data(), packed.size(), "borrowed", /*borrow=*/true);
    for (const Codebook* cb : {&owned, &borrowed}) {
      std::vector<int> votes(dim, 0);
      for (std::size_t m = 0; m < M; ++m) {
        for (std::size_t d = 0; d < dim; ++d) votes[d] += cb->vector(m).get(d);
      }
      EXPECT_EQ(cb->superposition(), sign_of_element_loop(votes)) << M;
      Rng got_rng(M);
      Rng want_rng(M);
      EXPECT_EQ(cb->superposition(got_rng),
                sign_of_element_loop(votes, want_rng))
          << M;
      EXPECT_EQ(got_rng.save_state(), want_rng.save_state()) << M;
    }
  }
}

TEST(Codebook, WrongSizeArgumentsThrow) {
  Rng rng(28);
  Codebook cb(64, 4, rng);
  EXPECT_THROW((void)cb.similarity(BipolarVector::random(65, rng)),
               std::invalid_argument);
  EXPECT_THROW((void)cb.project({1, 2}), std::invalid_argument);
}

// A row with a bit set past dim is refused whether its words would be
// copied or borrowed: borrowed rows reach the kernels as they are, while
// the vectors and the set fingerprint only ever see masked copies.
TEST(Codebook, FromPackedRefusesBitsPastDim) {
  Rng rng(32);
  for (const std::size_t dim : {1u, 63u, 1000u}) {
    const Codebook owned(dim, 3, rng);
    const std::size_t wpr = owned.words_per_row();
    std::vector<std::uint64_t> packed(owned.packed_data(),
                                      owned.packed_data() + 3 * wpr);
    for (const bool borrow : {false, true}) {
      EXPECT_EQ(Codebook::from_packed(dim, 3, packed.data(), packed.size(),
                                      "", borrow)
                    .vector(1),
                owned.vector(1))
          << dim;
    }
    for (const int bit : {static_cast<int>(dim % 64), 63}) {
      std::vector<std::uint64_t> dirty = packed;
      dirty[2 * wpr - 1] |= std::uint64_t{1} << bit;  // row 1's last word
      for (const bool borrow : {false, true}) {
        try {
          (void)Codebook::from_packed(dim, 3, dirty.data(), dirty.size(), "",
                                      borrow);
          ADD_FAILURE() << "accepted: dim=" << dim << " bit=" << bit
                        << " borrow=" << borrow;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("row 1 "), std::string::npos)
              << e.what();
        }
      }
    }
  }
  // At a multiple of 64 every bit of the last word is inside dim.
  std::vector<std::uint64_t> full(2, ~std::uint64_t{0});
  EXPECT_EQ(Codebook::from_packed(64, 2, full.data(), full.size(), "", true)
                .vector(0),
            BipolarVector(64).negate());
}

TEST(CodebookSet, ComposeBindsMembers) {
  Rng rng(29);
  CodebookSet set(256, 3, 8, rng);
  auto s = set.compose({1, 2, 3});
  auto manual = set.book(0).vector(1).bind(set.book(1).vector(2)).bind(set.book(2).vector(3));
  EXPECT_TRUE(s == manual);
}

TEST(CodebookSet, ComposeWrongArityThrows) {
  Rng rng(31);
  CodebookSet set(64, 3, 4, rng);
  EXPECT_THROW((void)set.compose({0, 1}), std::invalid_argument);
}

TEST(Vsa, BundlePreservesMemberSimilarity) {
  Rng rng(42);
  std::vector<BipolarVector> vs;
  for (int i = 0; i < 5; ++i) vs.push_back(BipolarVector::random(2048, rng));
  auto bun = h3dfact::hdc::bundle(vs);
  for (const auto& v : vs) EXPECT_GT(bun.cosine(v), 0.2);
  auto unrelated = BipolarVector::random(2048, rng);
  EXPECT_LT(std::abs(bun.cosine(unrelated)), 0.12);
}

TEST(ItemMemory, CleanupFindsExactItem) {
  Rng rng(50);
  ItemMemory mem(512);
  for (int i = 0; i < 20; ++i) {
    mem.add("item" + std::to_string(i), BipolarVector::random(512, rng));
  }
  auto r = mem.cleanup(mem.vector(13));
  EXPECT_EQ(r.index, 13u);
  EXPECT_EQ(r.label, "item13");
  EXPECT_EQ(r.dot, 512);
}

TEST(ItemMemory, CleanupToleratesNoise) {
  Rng rng(51);
  ItemMemory mem(1024);
  for (int i = 0; i < 50; ++i) {
    mem.add("i" + std::to_string(i), BipolarVector::random(1024, rng));
  }
  auto noisy = mem.vector(31).with_flips(0.25, rng);
  EXPECT_EQ(mem.cleanup(noisy).index, 31u);
}

TEST(ItemMemory, FindByLabel) {
  Rng rng(53);
  ItemMemory mem(64);
  mem.add("a", BipolarVector::random(64, rng));
  mem.add("b", BipolarVector::random(64, rng));
  EXPECT_EQ(mem.find("b").value(), 1u);
  EXPECT_FALSE(mem.find("zzz").has_value());
}

TEST(ItemMemory, DimMismatchThrows) {
  Rng rng(54);
  ItemMemory mem(64);
  EXPECT_THROW(mem.add("x", BipolarVector::random(65, rng)),
               std::invalid_argument);
}

TEST(SceneEncoder, EncodeDecodableByUnbinding) {
  Rng rng(60);
  SceneEncoder enc(1024, h3dfact::hdc::visual_object_schema(), rng);
  h3dfact::hdc::SceneObject obj{{2, 1, 0, 2}};
  auto s = enc.encode(obj);
  // Unbind three known attributes; the remainder must match the fourth.
  auto u = s.bind(enc.codebooks().book(1).vector(1))
               .bind(enc.codebooks().book(2).vector(0))
               .bind(enc.codebooks().book(3).vector(2));
  EXPECT_EQ(enc.codebooks().book(0).nearest(u), 2u);
}

TEST(SceneEncoder, LabelsMapIndices) {
  Rng rng(61);
  SceneEncoder enc(256, h3dfact::hdc::visual_object_schema(), rng);
  auto labels = enc.labels({0, 1, 2, 0});
  EXPECT_EQ(labels[0], "circle");
  EXPECT_EQ(labels[1], "red");
  EXPECT_EQ(labels[2], "bottom");
  EXPECT_EQ(labels[3], "left");
}

TEST(SceneEncoder, RandomObjectInRange) {
  Rng rng(62);
  SceneEncoder enc(128, h3dfact::hdc::visual_object_schema(), rng);
  for (int i = 0; i < 100; ++i) {
    auto obj = enc.random_object(rng);
    ASSERT_EQ(obj.attribute_indices.size(), 4u);
    for (std::size_t f = 0; f < 4; ++f) {
      EXPECT_LT(obj.attribute_indices[f], enc.spec(f).values.size());
    }
  }
}

TEST(SceneEncoder, InvalidObjectThrows) {
  Rng rng(63);
  SceneEncoder enc(128, h3dfact::hdc::visual_object_schema(), rng);
  EXPECT_THROW((void)enc.encode({{0, 0, 0}}), std::invalid_argument);
  EXPECT_THROW((void)enc.encode({{0, 0, 0, 99}}), std::out_of_range);
}

TEST(Vsa, BundleCapacityDegradesGracefully) {
  // Member similarity of a k-bundle scales ~1/sqrt(k); all members stay
  // recoverable well past k=10 at this dimension.
  Rng rng(47);
  const std::size_t d = 2048;
  std::vector<BipolarVector> vs;
  for (int i = 0; i < 15; ++i) vs.push_back(BipolarVector::random(d, rng));
  auto bun = h3dfact::hdc::bundle(vs);
  long long best_distractor = -static_cast<long long>(d);
  for (int i = 0; i < 50; ++i) {
    best_distractor =
        std::max(best_distractor, bun.dot(BipolarVector::random(d, rng)));
  }
  // Each member beats every distractor.
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_GT(bun.dot(vs[i]), best_distractor)
        << "member " << i << " lost in the bundle";
  }
}

// Property tests mirroring the HyperStream item-memory exemplar: seeded
// generation is deterministic across instances, independent seeds give
// quasi-orthogonal (~0.5 normalized Hamming) codebooks, and binding is
// exactly invertible.

TEST(Properties, IndependentSeedCodebooksNearHalfHamming) {
  const std::size_t d = 2048;
  Rng rng_a(0x1111111111111111ULL);
  Rng rng_b(0x2222222222222222ULL);
  Codebook a(d, 8, rng_a);
  Codebook b(d, 8, rng_b);
  for (std::size_t m = 0; m < 8; ++m) {
    const double frac = a.vector(m).hamming(b.vector(m));
    EXPECT_GT(frac, 0.40) << "codebook entry " << m;
    EXPECT_LT(frac, 0.60) << "codebook entry " << m;
  }
}

TEST(Properties, SameSeedCodebooksBitIdentical) {
  Rng rng_a(0x9bdcafe123456789ULL);
  Rng rng_b(0x9bdcafe123456789ULL);
  Codebook a(130, 6, rng_a);  // dim not a multiple of 64
  Codebook b(130, 6, rng_b);
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_TRUE(a.vector(m) == b.vector(m)) << "codebook entry " << m;
    EXPECT_EQ(a.vector(m).hash(), b.vector(m).hash());
  }
}

TEST(Properties, RandomVectorBitDensityNearHalf) {
  Rng rng(0xfeedbeefULL);
  const std::size_t d = 256;
  const int n = 200;
  double avg_plus = 0.0;
  for (int i = 0; i < n; ++i) {
    auto v = BipolarVector::random(d, rng);
    int plus = 0;
    for (std::size_t bit = 0; bit < d; ++bit) {
      if (v.get(bit) > 0) ++plus;
    }
    avg_plus += static_cast<double>(plus);
  }
  const double frac = avg_plus / static_cast<double>(n) / static_cast<double>(d);
  EXPECT_GT(frac, 0.40) << frac;
  EXPECT_LT(frac, 0.60) << frac;
}

TEST(Properties, BindUnbindRoundTripIsExactIdentity) {
  // Unbinding every other factor from a full product recovers each factor
  // bit-exactly, including at dimensions with a masked tail word.
  for (std::size_t d : {63u, 64u, 130u, 1024u}) {
    Rng rng(300 + d);
    auto a = BipolarVector::random(d, rng);
    auto b = BipolarVector::random(d, rng);
    auto c = BipolarVector::random(d, rng);
    auto s = a.bind(b).bind(c);
    EXPECT_TRUE(s.bind(b).bind(c) == a) << "dim " << d;
    EXPECT_TRUE(s.bind(a).bind(c) == b) << "dim " << d;
    EXPECT_TRUE(s.bind(a).bind(b) == c) << "dim " << d;
  }
}

TEST(Properties, ItemMemoryDeterministicAcrossInstances) {
  // Two item memories populated from identically seeded RNGs are
  // indistinguishable: same vectors, same cleanup answers.
  const std::size_t d = 512;
  ItemMemory mem_a(d);
  ItemMemory mem_b(d);
  {
    Rng rng(0x1234abcd9876fedcULL);
    for (int i = 0; i < 20; ++i) {
      mem_a.add("item" + std::to_string(i), BipolarVector::random(d, rng));
    }
  }
  {
    Rng rng(0x1234abcd9876fedcULL);
    for (int i = 0; i < 20; ++i) {
      mem_b.add("item" + std::to_string(i), BipolarVector::random(d, rng));
    }
  }
  Rng query_rng(7);
  for (int q = 0; q < 5; ++q) {
    auto noisy = mem_a.vector(static_cast<std::size_t>(q * 3)).with_flips(0.2, query_rng);
    auto ra = mem_a.cleanup(noisy);
    auto rb = mem_b.cleanup(noisy);
    EXPECT_EQ(ra.index, rb.index);
    EXPECT_EQ(ra.label, rb.label);
    EXPECT_EQ(ra.dot, rb.dot);
  }
  for (std::size_t i = 0; i < mem_a.size(); ++i) {
    EXPECT_TRUE(mem_a.vector(i) == mem_b.vector(i)) << "item " << i;
  }
}

// Property sweep: binding/unbinding consistency across dimensions.
class HdcDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HdcDimSweep, BindUnbindRoundTrip) {
  Rng rng(100 + GetParam());
  auto a = BipolarVector::random(GetParam(), rng);
  auto b = BipolarVector::random(GetParam(), rng);
  EXPECT_TRUE(a.bind(b).bind(a) == b);
  EXPECT_EQ(a.dot(a), static_cast<long long>(GetParam()));
}

TEST_P(HdcDimSweep, CodebookSimilaritySelfMax) {
  Rng rng(200 + GetParam());
  Codebook cb(GetParam(), 6, rng);
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_EQ(cb.nearest(cb.vector(m)), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HdcDimSweep,
                         ::testing::Values(63, 64, 65, 127, 128, 256, 513, 1024));

}  // namespace
