// Sweep subsystem tests: declarative grid resolution, deterministic cell
// seeding, shard-count invariance of the sharded runner, inline kernels on
// local shards, execution-mode equivalence of the trial runner, emitter
// golden files, the checkpoint file, and worker-failure propagation.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hdc/kernels/thread_pool.hpp"
#include "io/artifact.hpp"
#include "sweep/emit.hpp"
#include "sweep/protocol.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace {

using namespace h3dfact;

// Regression for the raw-strtoll grid-param parse: param_i64/param_u64/
// param_f64 route through the strict util::parse choke point, so
// "--param=1e4"-style tokens (and the whitespace forms strtoll silently
// skips) fail loudly with the param name instead of truncating to 1, and a
// negative count such as cap=-1 is refused instead of wrapping to 2^64-1.
TEST(GridParams, StrictParseRejectsPartialTokensByName) {
  sweep::GridParams params;
  params["trials"] = "1e4";
  params["pad"] = " 14";
  params["tail"] = "14 ";
  params["sigma"] = "0.5x";
  params["good"] = "250";
  params["rate"] = "2.5e-2";
  params["cap"] = "-1";

  EXPECT_EQ(sweep::param_i64(params, "good", 0), 250);
  EXPECT_EQ(sweep::param_u64(params, "good", 0), 250u);
  EXPECT_DOUBLE_EQ(sweep::param_f64(params, "rate", 0.0), 2.5e-2);
  EXPECT_EQ(sweep::param_i64(params, "absent", 77), 77);  // defaults intact
  EXPECT_EQ(sweep::param_u64(params, "absent", 77), 77u);

  for (const char* key : {"trials", "pad", "tail"}) {
    try {
      (void)sweep::param_i64(params, key, 0);
      FAIL() << "expected strict rejection of param " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  for (const char* key : {"trials", "pad", "tail", "cap"}) {
    try {
      (void)sweep::param_u64(params, key, 0);
      FAIL() << "expected strict rejection of param " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)sweep::param_f64(params, "sigma", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::param_f64(params, "pad", 0.0),
               std::invalid_argument);
}

void expect_stats_equal(const resonator::TrialStats& a,
                        const resonator::TrialStats& b,
                        const std::string& context) {
  EXPECT_EQ(a.trials, b.trials) << context;
  EXPECT_EQ(a.solved, b.solved) << context;
  EXPECT_EQ(a.correct, b.correct) << context;
  EXPECT_EQ(a.cycles, b.cycles) << context;
  EXPECT_EQ(a.iteration_samples, b.iteration_samples) << context;
  EXPECT_EQ(a.correct_by_iteration, b.correct_by_iteration) << context;
  EXPECT_EQ(a.correct_raw_by_iteration, b.correct_raw_by_iteration) << context;
  EXPECT_EQ(a.iterations_solved.count(), b.iterations_solved.count()) << context;
  EXPECT_EQ(a.iterations_solved.mean(), b.iterations_solved.mean()) << context;
  EXPECT_EQ(a.iterations_solved.sum_squared_dev(),
            b.iterations_solved.sum_squared_dev())
      << context;
  EXPECT_EQ(a.iterations_solved.min(), b.iterations_solved.min()) << context;
  EXPECT_EQ(a.iterations_solved.max(), b.iterations_solved.max()) << context;
}

// A fast 2×2 exact-engine grid exercising two axis kinds plus finalize.
sweep::SweepSpec small_grid() {
  sweep::SweepSpec spec;
  spec.name = "unit-grid";
  spec.base.dim = 256;
  spec.base.factors = 2;
  spec.base.trials = 8;
  spec.base.max_iterations = 60;
  spec.base.seed = 12345;
  spec.axes.push_back(sweep::Axis::codebook_size({4, 8}));
  spec.axes.push_back(sweep::Axis::query_noise({0.0, 0.05}));
  spec.finalize = [](sweep::Cell& cell) {
    cell.meta["tag"] = "M" + cell.coordinates[0].second;
  };
  return spec;
}

TEST(SweepSpec, ResolvesCellsRowMajor) {
  sweep::SweepSpec spec = small_grid();
  ASSERT_EQ(spec.cell_count(), 4u);

  // Last axis fastest: (M=4, q=0), (M=4, q=0.05), (M=8, q=0), (M=8, q=0.05).
  const sweep::Cell c0 = spec.cell(0);
  const sweep::Cell c1 = spec.cell(1);
  const sweep::Cell c2 = spec.cell(2);
  EXPECT_EQ(c0.config.codebook_size, 4u);
  EXPECT_DOUBLE_EQ(c0.config.query_flip_prob, 0.0);
  EXPECT_EQ(c1.config.codebook_size, 4u);
  EXPECT_DOUBLE_EQ(c1.config.query_flip_prob, 0.05);
  EXPECT_EQ(c2.config.codebook_size, 8u);
  ASSERT_EQ(c0.coordinates.size(), 2u);
  EXPECT_EQ(c0.coordinates[0].first, "M");
  EXPECT_EQ(c0.coordinates[0].second, "4");
  EXPECT_EQ(c0.coordinates[1].first, "query_noise");
  EXPECT_EQ(c0.meta.at("tag"), "M4");

  // Base fields not under an axis pass through untouched.
  EXPECT_EQ(c0.config.dim, 256u);
  EXPECT_EQ(c0.config.trials, 8u);

  EXPECT_THROW((void)spec.cell(4), std::out_of_range);
}

TEST(SweepSpec, CellSeedsAreDeterministicAndDistinct) {
  sweep::SweepSpec spec = small_grid();
  for (std::size_t i = 0; i < spec.cell_count(); ++i) {
    EXPECT_EQ(spec.cell(i).config.seed, sweep::cell_seed(spec.base.seed, i));
    for (std::size_t j = i + 1; j < spec.cell_count(); ++j) {
      EXPECT_NE(sweep::cell_seed(spec.base.seed, i),
                sweep::cell_seed(spec.base.seed, j));
    }
  }
  // Cell seeds never collapse onto the master seed itself.
  EXPECT_NE(sweep::cell_seed(7, 0), 7u);
}

TEST(SweepSpec, ParamAxisFeedsTheCellFactory) {
  sweep::SweepSpec spec;
  spec.base.dim = 256;
  spec.base.factors = 2;
  spec.base.codebook_size = 4;
  spec.base.trials = 4;
  spec.base.max_iterations = 30;
  spec.axes.push_back(sweep::Axis::param("adc_bits", {4, 8}));
  std::vector<double> seen;
  spec.factory = [&seen](std::shared_ptr<const hdc::CodebookSet> set,
                         const sweep::Cell& cell) {
    seen.push_back(cell.param("adc_bits", -1));
    return resonator::make_h3dfact(std::move(set), cell.config,
                                   static_cast<int>(cell.param("adc_bits", 4)));
  };
  auto results = sweep::run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].params.at("adc_bits"), 4.0);
  EXPECT_DOUBLE_EQ(results[1].params.at("adc_bits"), 8.0);
  ASSERT_FALSE(seen.empty());
  EXPECT_DOUBLE_EQ(seen.front(), 4.0);
}

// The acceptance property: per-cell statistics are bit-identical for every
// shard count, because each cell is a pure function of (spec, cell index).
TEST(SweepRunner, ShardCountInvariance) {
  sweep::SweepSpec spec = small_grid();

  sweep::SweepOptions seq;
  seq.shards = 1;
  const auto reference = sweep::run_sweep(spec, seq);
  ASSERT_EQ(reference.size(), 4u);

  for (unsigned shards : {2u, 4u, 8u}) {
    sweep::SweepOptions opt;
    opt.shards = shards;
    const auto sharded = sweep::run_sweep(spec, opt);
    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(sharded[i].index, reference[i].index);
      EXPECT_EQ(sharded[i].seed, reference[i].seed);
      EXPECT_EQ(sharded[i].coordinates, reference[i].coordinates);
      EXPECT_EQ(sharded[i].meta, reference[i].meta);
      expect_stats_equal(sharded[i].stats, reference[i].stats,
                         "shards=" + std::to_string(shards) + " cell " +
                             std::to_string(i));
    }
  }

  // And every cell equals a direct single-cell execution (run_trials is the
  // one-cell special case of the sweep).
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto direct = sweep::run_cell(spec, i, /*threads_override=*/1);
    expect_stats_equal(direct.stats, reference[i].stats,
                       "direct cell " + std::to_string(i));
  }
}

TEST(SweepRunner, ProgressReportsEveryCell) {
  sweep::SweepSpec spec = small_grid();
  sweep::SweepOptions opt;
  opt.shards = 2;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  opt.progress = [&](const sweep::CellResult& r, std::size_t done,
                     std::size_t total) {
    ++calls;
    last_done = done;
    EXPECT_LT(r.index, 4u);
    EXPECT_EQ(total, 4u);
  };
  const auto results = sweep::run_sweep(spec, opt);
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(last_done, 4u);
}

TEST(SweepRunner, WorkerFailurePropagates) {
  sweep::SweepSpec spec = small_grid();
  // Poison one cell: zero trials makes run_trials throw inside the worker.
  spec.finalize = [](sweep::Cell& cell) {
    if (cell.index == 2) cell.config.trials = 0;
  };

  // Every shard count fails the same way: runtime_error naming the cell.
  for (unsigned shards : {1u, 2u, 4u, 8u}) {
    sweep::SweepOptions opt;
    opt.shards = shards;
    try {
      (void)sweep::run_sweep(spec, opt);
      FAIL() << "expected a sweep failure at shards=" << shards;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cell 2"), std::string::npos)
          << "shards=" << shards << ": " << e.what();
    }
  }
}

// While several local shards run, every kernel call a shard makes runs
// inline on the thread that makes it — also from trial threads the shard
// starts — so shards never push kernel work onto cores other shards hold.
// One shard keeps the pool's fan-out.
TEST(SweepRunner, LocalShardsRunKernelsInline) {
  struct RestoreKernelThreads {
    unsigned saved = hdc::kernels::kernel_threads();
    ~RestoreKernelThreads() { hdc::kernels::set_kernel_threads(saved); }
  } const restore;
  hdc::kernels::set_kernel_threads(4);

  struct Call {
    std::thread::id caller;
    std::thread::id runner;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  util::Mutex mutex;
  std::vector<Call> calls;  // guarded by mutex
  sweep::SweepSpec spec = small_grid();
  spec.base.trials = 4 * resonator::kTrialBlockAlign;  // 2 blocks of 2 chunks
  spec.factory = [&](std::shared_ptr<const hdc::CodebookSet> set,
                     const sweep::Cell& cell) {
    const std::thread::id caller = std::this_thread::get_id();
    hdc::kernels::KernelPool::instance().parallel_for(
        64, [&](std::size_t begin, std::size_t end) {
          util::MutexLock lock(mutex);
          calls.push_back({caller, std::this_thread::get_id(), begin, end});
        });
    return resonator::make_baseline(std::move(set), cell.config);
  };

  for (unsigned cell_threads : {0u, 2u}) {
    calls.clear();
    sweep::SweepOptions opt;
    opt.shards = 2;
    opt.threads_per_cell = cell_threads;
    (void)sweep::run_sweep(spec, opt);
    ASSERT_FALSE(calls.empty());
    for (const Call& c : calls) {
      EXPECT_EQ(c.runner, c.caller) << "threads_per_cell=" << cell_threads;
      EXPECT_EQ(c.begin, 0u) << "threads_per_cell=" << cell_threads;
      EXPECT_EQ(c.end, 64u) << "threads_per_cell=" << cell_threads;
    }
  }

  calls.clear();
  sweep::SweepOptions one;
  one.shards = 1;
  one.threads_per_cell = 1;
  (void)sweep::run_sweep(spec, one);
  const std::size_t factories = spec.cell_count();  // one trial thread each
  EXPECT_EQ(calls.size(), 4 * factories);  // four chunks per call
  for (const Call& c : calls) EXPECT_EQ(c.end - c.begin, 16u);
}

// run_trials execution modes: the lockstep-batched default must reproduce
// the per-trial path field-for-field on engines without per-call
// randomness, for the deterministic baseline and through the stochastic
// channel, at any thread count.
TEST(TrialExecution, BatchedMatchesPerTrial) {
  for (const bool stochastic : {false, true}) {
    resonator::TrialConfig cfg;
    cfg.dim = 256;
    cfg.factors = 2;
    cfg.codebook_size = 6;
    cfg.trials = 70;  // spans multiple lockstep chunks
    cfg.max_iterations = 60;
    cfg.seed = 99;
    cfg.record_correct_trace = true;
    if (stochastic) {
      cfg.factory = [](std::shared_ptr<const hdc::CodebookSet> s,
                       const resonator::TrialConfig& c) {
        return resonator::make_h3dfact(std::move(s), c);
      };
    }

    cfg.execution = resonator::TrialExecution::kPerTrial;
    cfg.threads = 1;
    const auto per_trial = resonator::run_trials(cfg);

    cfg.execution = resonator::TrialExecution::kBatched;
    for (unsigned threads : {1u, 4u}) {
      cfg.threads = threads;
      const auto batched = resonator::run_trials(cfg);
      expect_stats_equal(per_trial, batched,
                         std::string(stochastic ? "h3d" : "baseline") +
                             " threads=" + std::to_string(threads));
    }
  }
}

// --- emitter golden files --------------------------------------------------

std::vector<sweep::CellResult> golden_results() {
  sweep::CellResult r;
  r.index = 0;
  r.coordinates = {{"F", "3"}, {"M", "16"}};
  r.params["sigma"] = 0.5;
  r.meta["paper_acc"] = "99.4";
  r.dim = 1024;
  r.factors = 3;
  r.codebook_size = 16;
  r.trials = 4;
  r.max_iterations = 100;
  r.query_flip_prob = 0.0;
  r.seed = 42;
  r.stats.trials = 4;
  r.stats.solved = 2;
  r.stats.correct = 3;
  r.stats.cycles = 1;
  r.stats.iteration_samples = {2.0, 6.0};
  r.stats.iterations_solved.add(2.0);
  r.stats.iterations_solved.add(6.0);
  r.wall_seconds = 0.25;

  sweep::CellResult q = r;
  q.index = 1;
  q.coordinates = {{"F", "3"}, {"M", "32"}};
  q.codebook_size = 32;
  q.meta["paper_acc"] = "99,3";  // comma forces CSV quoting
  q.seed = 43;
  return {r, q};
}

TEST(SweepEmit, CsvGolden) {
  const auto results = golden_results();
  const std::string expected =
      "cell,F,M,sigma,dim,factors,codebook_size,trials,max_iterations,"
      "query_flip_prob,seed,solved,correct,cycles,accuracy,accuracy_ci,"
      "solve_rate,median_iterations,iterations_p99,wall_seconds,paper_acc\n"
      "0,3,16,0.5,1024,3,16,4,100,0,42,2,3,1,0.75,0.326889,0.5,4,-1,0.25,"
      "99.4\n"
      "1,3,32,0.5,1024,3,32,4,100,0,43,2,3,1,0.75,0.326889,0.5,4,-1,0.25,"
      "\"99,3\"\n";
  EXPECT_EQ(sweep::csv_string(results), expected);
}

TEST(SweepEmit, JsonGolden) {
  const auto results = golden_results();
  const std::string expected = R"({
  "sweep": "golden",
  "cells": [
    {
      "index": 0,
      "coordinates": {"F": "3", "M": "16"},
      "params": {"sigma": 0.5},
      "meta": {"paper_acc": "99.4"},
      "config": {"dim": 1024, "factors": 3, "codebook_size": 16, "trials": 4, "max_iterations": 100, "query_flip_prob": 0, "seed": "42"},
      "stats": {"trials": 4, "solved": 2, "correct": 3, "cycles": 1, "accuracy": 0.75, "accuracy_ci": 0.326889, "solve_rate": 0.5, "median_iterations": 4, "iterations_p99": -1, "mean_iterations_solved": 4},
      "iteration_samples": [2, 6],
      "correct_by_iteration": [],
      "correct_raw_by_iteration": [],
      "wall_seconds": 0.25
    },
    {
      "index": 1,
      "coordinates": {"F": "3", "M": "32"},
      "params": {"sigma": 0.5},
      "meta": {"paper_acc": "99,3"},
      "config": {"dim": 1024, "factors": 3, "codebook_size": 32, "trials": 4, "max_iterations": 100, "query_flip_prob": 0, "seed": "43"},
      "stats": {"trials": 4, "solved": 2, "correct": 3, "cycles": 1, "accuracy": 0.75, "accuracy_ci": 0.326889, "solve_rate": 0.5, "median_iterations": 4, "iterations_p99": -1, "mean_iterations_solved": 4},
      "iteration_samples": [2, 6],
      "correct_by_iteration": [],
      "correct_raw_by_iteration": [],
      "wall_seconds": 0.25
    }
  ]
}
)";
  EXPECT_EQ(sweep::json_string("golden", results), expected);
}

// --- checkpoint -------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  ASSERT_TRUE(os.good()) << path;
}

// The checkpoint holds each cell in the wire encoding, so every field reads
// back bit for bit: a full-range 64-bit seed, a sample far past %.6g, both
// trace histograms, and quotes, backslashes, newlines and tabs in meta.
TEST(SweepEmit, CheckpointRoundTripsThroughReader) {
  auto results = golden_results();
  results[0].stats.correct_by_iteration = {0, 1, 3, 4};
  results[0].stats.correct_raw_by_iteration = {2, 3, 3, 4};
  results[1].seed = 0xfffffffffffffff0ULL;
  results[1].stats.iteration_samples = {2824079.0, 6.0};
  results[1].stats.iterations_solved = {};
  for (double x : results[1].stats.iteration_samples) {
    results[1].stats.iterations_solved.add(x);
  }
  results[1].meta["note"] = "quote \" backslash \\ newline \n tab \t";

  sweep::SweepSpec spec = small_grid();
  spec.name = "golden";
  spec.base.trials = 4;  // the golden cells are whole 4-trial cells
  const std::uint64_t fingerprint = sweep::spec_fingerprint(spec);
  const std::string path = ::testing::TempDir() + "/sweep_roundtrip.ckpt";
  sweep::write_checkpoint(path, spec.name, fingerprint, results);
  const auto back = sweep::read_checkpoint(path, spec, fingerprint);
  std::remove(path.c_str());

  ASSERT_EQ(back.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(back[i].index, results[i].index);
    EXPECT_EQ(back[i].coordinates, results[i].coordinates);
    EXPECT_EQ(back[i].params, results[i].params);
    EXPECT_EQ(back[i].meta, results[i].meta);
    EXPECT_EQ(back[i].dim, results[i].dim);
    EXPECT_EQ(back[i].factors, results[i].factors);
    EXPECT_EQ(back[i].codebook_size, results[i].codebook_size);
    EXPECT_EQ(back[i].trials, results[i].trials);
    EXPECT_EQ(back[i].max_iterations, results[i].max_iterations);
    EXPECT_EQ(back[i].query_flip_prob, results[i].query_flip_prob);
    EXPECT_EQ(back[i].seed, results[i].seed);
    EXPECT_EQ(back[i].wall_seconds, results[i].wall_seconds);
    expect_stats_equal(back[i].stats, results[i].stats,
                       "checkpoint round trip cell " + std::to_string(i));
  }
  EXPECT_EQ(sweep::json_string("golden", back),
            sweep::json_string("golden", results));
}

// --- cell filter + checkpoint resume ----------------------------------------

TEST(SweepRunner, CellFilterRunsOnlySelectedCells) {
  EXPECT_EQ(sweep::parse_cell_filter("0-2,5,7-8", 10),
            (std::vector<std::size_t>{0, 1, 2, 5, 7, 8}));
  EXPECT_EQ(sweep::parse_cell_filter("3", 4), (std::vector<std::size_t>{3}));
  EXPECT_THROW((void)sweep::parse_cell_filter("4", 4), std::out_of_range);
  EXPECT_THROW((void)sweep::parse_cell_filter("2-1", 4),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_cell_filter("a-b", 4),
               std::invalid_argument);
  EXPECT_THROW((void)sweep::parse_cell_filter("", 4), std::invalid_argument);
  // Indices past 2^64 - 1 are rejected, not wrapped onto small cells.
  EXPECT_THROW((void)sweep::parse_cell_filter("18446744073709551617", 4),
               std::out_of_range);
  EXPECT_THROW((void)sweep::parse_cell_filter(
                   "18446744073709551616-18446744073709551617", 4),
               std::out_of_range);

  sweep::SweepSpec spec = small_grid();
  const auto reference = sweep::run_sweep(spec, {});

  sweep::SweepOptions opt;
  opt.cells = {1, 3};
  opt.shards = 2;
  const auto subset = sweep::run_sweep(spec, opt);
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset[0].index, 1u);
  EXPECT_EQ(subset[1].index, 3u);
  expect_stats_equal(subset[0].stats, reference[1].stats, "filtered cell 1");
  expect_stats_equal(subset[1].stats, reference[3].stats, "filtered cell 3");
}

TEST(SweepRunner, CheckpointResumeSkipsCompletedCells) {
  sweep::SweepSpec spec = small_grid();
  const auto reference = sweep::run_sweep(spec, {});

  const std::string path =
      ::testing::TempDir() + "/sweep_checkpoint_test.ckpt";
  std::remove(path.c_str());

  // Phase 1: an "interrupted" run that only finished cells 0 and 2.
  sweep::SweepOptions phase1;
  phase1.cells = {0, 2};
  phase1.checkpoint_path = path;
  const auto partial = sweep::run_sweep(spec, phase1);
  ASSERT_EQ(partial.size(), 2u);

  // Phase 2: the restarted full run resumes from the checkpoint — only the
  // remaining cells execute (the progress callback observes exactly two
  // fresh completions) and the merged output equals the uninterrupted run.
  sweep::SweepOptions phase2;
  phase2.checkpoint_path = path;
  std::vector<std::size_t> fresh;
  phase2.progress = [&fresh](const sweep::CellResult& r, std::size_t done,
                             std::size_t total) {
    fresh.push_back(r.index);
    EXPECT_EQ(total, 4u);
    EXPECT_GE(done, 3u);  // resumed cells count as already done
  };
  const auto resumed = sweep::run_sweep(spec, phase2);
  EXPECT_EQ(fresh.size(), 2u);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i].index, reference[i].index);
    expect_stats_equal(resumed[i].stats, reference[i].stats,
                       "resumed cell " + std::to_string(i));
  }

  // A checkpoint from a different grid is refused, not silently mixed in.
  sweep::SweepSpec other = small_grid();
  other.name = "a-different-grid";
  sweep::SweepOptions mismatch;
  mismatch.checkpoint_path = path;
  EXPECT_THROW((void)sweep::run_sweep(other, mismatch), std::runtime_error);

  std::remove(path.c_str());
}

// A file that is not a checkpoint of this very spec stops the run before any
// cell runs, names the file, and is left byte for byte as it was.
TEST(SweepRunner, CheckpointRefusesForeignOrCorruptFiles) {
  const sweep::SweepSpec spec = small_grid();
  const std::uint64_t fingerprint = sweep::spec_fingerprint(spec);
  const std::string path = ::testing::TempDir() + "/sweep_refusal.ckpt";
  std::remove(path.c_str());
  sweep::SweepOptions filtered;
  filtered.cells = {0, 2};
  filtered.checkpoint_path = path;
  const auto done = sweep::run_sweep(spec, filtered);
  ASSERT_EQ(done.size(), 2u);
  const std::string good = read_file(path);

  // The layout spelled out: name, fingerprint, count, length-prefixed cells.
  const auto checkpoint = [](const std::string& name, std::uint64_t fp,
                             std::uint64_t count,
                             const std::vector<std::string>& cells,
                             const std::string& tail = "") {
    std::string payload;
    util::put_str(payload, name);
    util::put_u64(payload, fp);
    util::put_u64(payload, count);
    for (const std::string& c : cells) util::put_str(payload, c);
    io::ArtifactWriter writer;
    writer.add_section(io::SectionKind::kSweepCells, payload + tail);
    return writer.serialize();
  };
  const std::string c0 = sweep::encode_result(0, done[0]);
  const std::string c2 = sweep::encode_result(0, done[1]);
  ASSERT_EQ(checkpoint(spec.name, fingerprint, 2, {c0, c2}), good);

  sweep::CellResult past = done[1];
  past.index = spec.cell_count();
  sweep::CellResult partial = done[1];
  partial.stats.trials -= 1;
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  sweep::SweepSpec renamed = small_grid();
  renamed.name = "a-different-grid";
  // Same name and the same first cells, but another grid shape.
  sweep::SweepSpec reshaped = small_grid();
  reshaped.axes[0] = sweep::Axis::codebook_size({4, 8, 16});

  struct Case {
    const char* what;
    const sweep::SweepSpec* spec;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"a JSON checkpoint", &spec, sweep::json_string(spec.name, done)},
      {"a truncated file", &spec, good.substr(0, good.size() / 2)},
      {"a flipped payload byte", &spec, flipped},
      {"another sweep's name", &renamed, good},
      {"another grid of the same name", &reshaped, good},
      {"2^64-1 cells", &spec, checkpoint(spec.name, fingerprint, ~0ULL, {c0})},
      {"a cell past the grid", &spec,
       checkpoint(spec.name, fingerprint, 1, {sweep::encode_result(0, past)})},
      {"a repeated cell", &spec,
       checkpoint(spec.name, fingerprint, 2, {c0, c0})},
      {"cells out of order", &spec,
       checkpoint(spec.name, fingerprint, 2, {c2, c0})},
      {"a trial block", &spec,
       checkpoint(spec.name, fingerprint, 1,
                  {sweep::encode_result(16, done[0])})},
      {"an incomplete cell", &spec,
       checkpoint(spec.name, fingerprint, 1,
                  {sweep::encode_result(0, partial)})},
      {"trailing payload bytes", &spec,
       checkpoint(spec.name, fingerprint, 2, {c0, c2}, "x")},
      {"trailing cell bytes", &spec,
       checkpoint(spec.name, fingerprint, 1, {c0 + "x"})},
  };
  for (const Case& c : cases) {
    write_file(path, c.bytes);
    std::size_t ran = 0;
    sweep::SweepOptions resume;
    resume.checkpoint_path = path;
    resume.progress = [&ran](const sweep::CellResult&, std::size_t,
                             std::size_t) { ++ran; };
    try {
      (void)sweep::run_sweep(*c.spec, resume);
      ADD_FAILURE() << c.what << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << c.what << ": " << e.what();
    }
    EXPECT_EQ(ran, 0u) << c.what;
    EXPECT_EQ(read_file(path), c.bytes) << c.what;
  }
  std::remove(path.c_str());
}

// Checkpoint writes are best-effort: a path that cannot be written (here,
// in a missing directory) costs the resume, never the sweep.
TEST(SweepRunner, UnwritableCheckpointStillFinishesTheSweep) {
  const sweep::SweepSpec spec = small_grid();
  const auto reference = sweep::run_sweep(spec, {});
  sweep::SweepOptions opt;
  opt.shards = 2;
  opt.checkpoint_path = ::testing::TempDir() + "/no-such-dir/sweep.ckpt";
  const auto results = sweep::run_sweep(spec, opt);
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(results[i].index, reference[i].index);
    expect_stats_equal(results[i].stats, reference[i].stats,
                       "unwritable checkpoint cell " + std::to_string(i));
  }
}

// Round-trip through the shard pipe serialization is exercised implicitly
// by ShardCountInvariance (process shards encode/decode every result);
// this guards the one field the invariance test cannot see: metadata and
// coordinates surviving a ragged grid where cells disagree on keys.
TEST(SweepEmit, RaggedGridUnionsColumns) {
  auto results = golden_results();
  results[1].params.clear();
  results[1].params["theta"] = 1.5;
  const std::string csv = sweep::csv_string(results);
  EXPECT_NE(csv.find("sigma,theta"), std::string::npos);
  // Cell 0 has no theta; cell 1 has no sigma — both emit empty fields.
  EXPECT_NE(csv.find("0,3,16,0.5,,1024"), std::string::npos);
  EXPECT_NE(csv.find("1,3,32,,1.5,1024"), std::string::npos);
}

}  // namespace
