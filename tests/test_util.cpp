// Unit tests for util: PRNG determinism and distribution sanity, streaming
// statistics, table formatting, CLI parsing.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"

namespace {

using h3dfact::util::Cli;
using h3dfact::util::Rng;
using h3dfact::util::RunningStats;
using h3dfact::util::Table;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(3);
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (c1.next() == c2.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(13);
  std::vector<int> hist(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++hist[rng.below(5)];
  for (int c : hist) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(14);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(15);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(16);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BipolarIsBalanced) {
  Rng rng(18);
  int sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.bipolar();
  EXPECT_LT(std::abs(sum), 4 * static_cast<int>(std::sqrt(n)));
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(20);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.gaussian(1.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(h3dfact::util::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(h3dfact::util::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(h3dfact::util::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(h3dfact::util::percentile(xs, 25), 2.0);
}

TEST(Stats, PercentileOfEmptyThrows) {
  EXPECT_THROW(h3dfact::util::percentile({}, 50), std::invalid_argument);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(h3dfact::util::median({1, 2, 3, 4}), 2.5);
}

TEST(Stats, WilsonHalfwidthShrinksWithTrials) {
  double w100 = h3dfact::util::wilson_halfwidth(50, 100);
  double w10000 = h3dfact::util::wilson_halfwidth(5000, 10000);
  EXPECT_GT(w100, w10000);
  EXPECT_GT(w100, 0.0);
  EXPECT_DOUBLE_EQ(h3dfact::util::wilson_halfwidth(0, 0), 0.0);
}

TEST(Stats, GeomeanKnownValues) {
  EXPECT_NEAR(h3dfact::util::geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(h3dfact::util::geomean({1.0, -1.0}), std::invalid_argument);
}

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  t.add_note("note line");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("note line"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_pct(0.993, 1), "99.3%");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t("csv");
  t.set_header({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  t.add_note("a note");
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name,value\n"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(out.find("# a note"), std::string::npos);
}

TEST(Table, CsvWithoutHeader) {
  Table t("csv");
  t.add_row({"a", "b"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n");
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=7.5", "--flag", "pos"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.i64("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.f64("beta", 0), 7.5);
  EXPECT_TRUE(cli.flag("flag"));
  EXPECT_FALSE(cli.flag("missing"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.i64("n", 123), 123);
  EXPECT_DOUBLE_EQ(cli.f64("x", 2.5), 2.5);
  EXPECT_EQ(cli.str("s", "dft"), "dft");
}

TEST(Cli, FalseStringGivesFalseFlag) {
  const char* argv[] = {"prog", "--verbose=false"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_FALSE(cli.flag("verbose", true));
}

// A mistyped numeric flag used to silently parse its longest numeric prefix
// (--trials=1e4 -> 1) or 0 (--trials=abc); both now fail fast, and the
// error names the offending flag so the user can find it.
TEST(Cli, RejectsNonNumericValuesByFlagName) {
  const char* argv[] = {"prog", "--trials=1e4", "--cap=abc", "--sigma=0.5x",
                        "--empty=", "--good=42", "--rate=2.5"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.i64("good", 0), 42);
  EXPECT_DOUBLE_EQ(cli.f64("rate", 0), 2.5);
  for (const char* key : {"trials", "cap", "empty"}) {
    try {
      (void)cli.i64(key, 0);
      FAIL() << "expected rejection of --" << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)cli.f64("sigma", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.f64("empty", 0), std::invalid_argument);
  // Out-of-range magnitudes are overflow, not truncation-to-garbage.
  const char* argv2[] = {"prog", "--n=99999999999999999999999999"};
  Cli big(2, const_cast<char**>(argv2));
  EXPECT_THROW((void)big.i64("n", 0), std::invalid_argument);
  // Unsigned counts must not wrap: --shards=-1 used to become 4294967295
  // shards, and 2^32 narrowed to 0.
  const char* argv3[] = {"prog", "--shards=-1", "--workers=4294967296",
                         "--seed=18446744073709551615"};
  Cli counts(4, const_cast<char**>(argv3));
  for (const char* key : {"shards", "workers"}) {
    try {
      (void)counts.u64(key, 1, std::numeric_limits<unsigned>::max());
      FAIL() << "expected rejection of --" << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(counts.u64("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(counts.u64("absent", 7), 7u);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  auto a = h3dfact::util::splitmix64(s);
  auto b = h3dfact::util::splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(h3dfact::util::splitmix64(s2), a);
}

// --- strict parse choke point (util/parse.hpp) ------------------------------

TEST(Parse, AcceptsExactlyFullTokens) {
  using h3dfact::util::parse_f64;
  using h3dfact::util::parse_i64;
  EXPECT_EQ(parse_i64("42").value(), 42);
  EXPECT_EQ(parse_i64("-7").value(), -7);
  EXPECT_EQ(parse_i64("+9").value(), 9);
  EXPECT_DOUBLE_EQ(parse_f64("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_f64("1e4").value(), 1e4);
  EXPECT_DOUBLE_EQ(parse_f64("-3.25e-2").value(), -3.25e-2);
  // Full 64-bit range: checkpoint seeds round-trip through parse_u64.
  using h3dfact::util::parse_u64;
  EXPECT_EQ(parse_u64("18446744073709551615").value(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, RejectsPartialEmptyAndOverflowTokens) {
  using h3dfact::util::parse_f64;
  using h3dfact::util::parse_i64;
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("1e4"));   // scientific is not an integer
  EXPECT_FALSE(parse_i64("12x"));   // trailing garbage
  EXPECT_FALSE(parse_i64("0x10"));  // hex is not base-10
  EXPECT_FALSE(parse_i64("99999999999999999999999999"));  // overflow
  EXPECT_FALSE(parse_f64(""));
  EXPECT_FALSE(parse_f64("0.5x"));
  EXPECT_FALSE(parse_f64("1e+"));  // malformed exponent tail
  using h3dfact::util::parse_u64;
  EXPECT_FALSE(parse_u64("-1"));  // strtoull would wrap to 2^64-1
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // one past max
  EXPECT_FALSE(parse_u64(" 14"));
}

// Fingerprints print as hex; `std::stoull(s, nullptr, 0)` used to accept a
// correct one with trailing garbage.
TEST(Parse, DecOrHexAcceptsOnlyWholeTokens) {
  using h3dfact::util::parse_u64_dec_or_hex;
  EXPECT_EQ(parse_u64_dec_or_hex("42").value(), 42u);
  EXPECT_EQ(parse_u64_dec_or_hex("0x2A").value(), 42u);
  EXPECT_EQ(parse_u64_dec_or_hex("0Xffffffffffffffff").value(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64_dec_or_hex("0x2AZZZ"));
  EXPECT_FALSE(parse_u64_dec_or_hex("0x"));
  EXPECT_FALSE(parse_u64_dec_or_hex("0x0x2A"));
  EXPECT_FALSE(parse_u64_dec_or_hex("0x-1"));
  EXPECT_FALSE(parse_u64_dec_or_hex("0x10000000000000000"));  // overflow
  EXPECT_FALSE(parse_u64_dec_or_hex("2A"));  // hex needs the prefix
  EXPECT_FALSE(parse_u64_dec_or_hex("-1"));
}

// strtoll/strtod silently skip leading whitespace, so " 14" used to parse
// as 14 through both Cli and the grid params; the choke point rejects it.
TEST(Parse, RejectsLeadingWhitespaceThatStrtollAccepts) {
  using h3dfact::util::parse_f64;
  using h3dfact::util::parse_i64;
  EXPECT_FALSE(parse_i64(" 14"));
  EXPECT_FALSE(parse_i64("\t14"));
  EXPECT_FALSE(parse_i64("14 "));
  EXPECT_FALSE(parse_f64(" 2.5"));
  EXPECT_FALSE(parse_f64("2.5 "));
}

TEST(Cli, RejectsWhitespacePaddedNumbers) {
  const char* argv[] = {"prog", "--trials= 14", "--sigma=0.5 "};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.i64("trials", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.f64("sigma", 0), std::invalid_argument);
}

// A flag no accessor looked up is refused by name: every accessor counts as
// a read, whether the flag was set or not, and a read that throws on a bad
// value counts too. Through run_main the refusal is exit status 1.
TEST(Cli, RejectsFlagsNothingRead) {
  const char* argv[] = {"build/bench/dse_search", "--trials=8", "--fast",
                        "--thermal-grid=48", "--name=x", "--bogus", "--ratio=y",
                        "pos"};
  char** args = const_cast<char**>(argv);
  Cli cli(8, args);
  EXPECT_EQ(cli.u64("trials", 0), 8u);
  EXPECT_TRUE(cli.has("fast"));
  EXPECT_EQ(cli.str("name", ""), "x");
  EXPECT_EQ(cli.i64("thermal", 0), 0);  // a default read of an absent flag
  EXPECT_THROW((void)cli.f64("ratio", 0), std::invalid_argument);
  try {
    cli.reject_unread();
    FAIL() << "accepted --bogus and --thermal-grid";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --bogus, --thermal-grid");
  }
  (void)cli.flag("bogus");
  (void)cli.flag("thermal-grid");
  EXPECT_NO_THROW(cli.reject_unread());

  testing::internal::CaptureStderr();
  const int status = h3dfact::util::run_main(8, args, [](int n, char** v) {
    Cli c(n, v);
    (void)c.u64("trials", 0);
    c.reject_unread();
    return 0;
  });
  EXPECT_EQ(status, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[dse_search] unknown flag --bogus, --fast, --name, --ratio, "
            "--thermal-grid\n");
}

// The one exit path of the bench mains: a thrown exception becomes exit
// status 1 and one stderr line tagged with the program's basename; any
// status the body returns passes through.
TEST(Cli, RunMainTurnsExceptionsIntoExitOne) {
  const char* argv[] = {"build/bench/table2_accuracy", "--rows=2"};
  char** args = const_cast<char**>(argv);
  testing::internal::CaptureStderr();
  const int status = h3dfact::util::run_main(2, args, [](int, char**) -> int {
    throw std::runtime_error("checkpoint 'x.json' cannot resume");
  });
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[table2_accuracy] checkpoint 'x.json' cannot resume\n");
  EXPECT_EQ(status, 1);
  EXPECT_EQ(
      h3dfact::util::run_main(2, args, [](int argc, char**) { return argc; }),
      2);
}

// --- annotated sync wrappers (util/sync.hpp) --------------------------------
// Semantics must match the std:: primitives exactly; the wrappers add only
// the thread-safety-analysis attribute surface.

// try_lock from the holder's own thread is UB for std::mutex, so contention
// probes run on a helper thread (acquire-and-release if it succeeds).
bool try_lock_from_other_thread(h3dfact::util::Mutex& m) {
  bool acquired = false;
  std::thread probe([&]() {
    if (m.try_lock()) {
      acquired = true;
      m.unlock();
    }
  });
  probe.join();
  return acquired;
}

TEST(Sync, MutexLockUnlockAndTryLock) {
  h3dfact::util::Mutex m;
  m.lock();
  EXPECT_FALSE(try_lock_from_other_thread(m));  // held -> try_lock fails
  m.unlock();
  EXPECT_TRUE(try_lock_from_other_thread(m));  // released -> succeeds
}

TEST(Sync, MutexLockIsScopedLikeLockGuard) {
  h3dfact::util::Mutex m;
  {
    h3dfact::util::MutexLock lock(m);
    EXPECT_FALSE(try_lock_from_other_thread(m));
  }
  EXPECT_TRUE(try_lock_from_other_thread(m));  // released at scope exit
}

TEST(Sync, CondVarNotifyWakesWaiter) {
  h3dfact::util::Mutex m;
  h3dfact::util::CondVar cv;
  bool ready = false;
  std::thread waker([&]() {
    h3dfact::util::MutexLock lock(m);
    ready = true;
    cv.notify_one();
  });
  {
    h3dfact::util::MutexLock lock(m);
    while (!ready) cv.wait(m);
    EXPECT_TRUE(ready);
    EXPECT_FALSE(try_lock_from_other_thread(m));  // wait() re-acquired it
  }
  waker.join();
}

TEST(Sync, CondVarWaitForTimesOutLikeStd) {
  h3dfact::util::Mutex m;
  h3dfact::util::CondVar cv;
  h3dfact::util::MutexLock lock(m);
  const bool ok =
      cv.wait_for(m, std::chrono::milliseconds(10), []() { return false; });
  EXPECT_FALSE(ok);  // predicate still false after the timeout
  EXPECT_FALSE(try_lock_from_other_thread(m));  // and the mutex is held again
}

TEST(Sync, CondVarPredicateWaitSeesNotifiedState) {
  h3dfact::util::Mutex m;
  h3dfact::util::CondVar cv;
  int stage = 0;
  std::thread producer([&]() {
    for (int s = 1; s <= 3; ++s) {
      h3dfact::util::MutexLock lock(m);
      stage = s;
      cv.notify_all();
    }
  });
  {
    h3dfact::util::MutexLock lock(m);
    cv.wait(m, [&]() { return stage == 3; });
    EXPECT_EQ(stage, 3);
  }
  producer.join();
}

// run_workers threads inherit the caller's InlineKernels flag, and a scope
// only ever adds the flag, restoring the thread's own on exit.
TEST(Sync, RunWorkersCarriesInlineKernels) {
  using h3dfact::util::InlineKernels;
  EXPECT_FALSE(InlineKernels::active());
  std::atomic<int> inline_threads{0};
  {
    const InlineKernels outer(true);
    const InlineKernels nested(false);
    EXPECT_TRUE(InlineKernels::active());
    h3dfact::util::run_workers(3, [&]() {
      if (InlineKernels::active()) ++inline_threads;
    });
  }
  EXPECT_EQ(inline_threads.load(), 3);
  EXPECT_FALSE(InlineKernels::active());
  h3dfact::util::run_workers(2, [&]() {
    if (InlineKernels::active()) ++inline_threads;
  });
  EXPECT_EQ(inline_threads.load(), 3);
}

}  // namespace
