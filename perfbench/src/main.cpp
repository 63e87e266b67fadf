// perfbench entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--source-digest HEX] [--git-commit SHA]
//
// Prints two lines on stdout: a stamp line ({"perfbench": {...}}: host,
// build, pinned threads, output digest) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 the per-layer set, where a layer
// the workload does not load reads 0. Both lines are also written to
// DIR/result-<workload>-seed<N>-trace<T>.json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "hdc/kernels/backend.hpp"
#include "hdc/kernels/policy.hpp"
#include "util/parse.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every result against it).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},   {"trials_per_s", "1/s"}, {"accuracy", "ratio"},
    {"p50_ms", "ms"},   {"p99_ms", "ms"},        {"max_qps", "1/s"},
    {"search_s", "s"},  {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"hdc.similarity.ns_per_item", "ns"},
    {"hdc.similarity.share", "ratio"},
    {"hdc.projection.ns_per_item", "ns"},
    {"hdc.projection.share", "ratio"},
    {"hdc.projection.nonzero_frac", "ratio"},
    {"hdc.batch.items_mean", "count"},
    {"hdc.pool.helper_share", "ratio"},
    {"resonator.channel.ns_per_call", "ns"},
    {"resonator.channel.share", "ratio"},
    {"resonator.loop.ns_per_iter", "ns"},
    {"resonator.loop.share", "ratio"},
    {"resonator.problem_iters", "count"},
    {"resonator.cpu_util", "ratio"},
    {"sweep.self_share", "ratio"},
    {"sweep.frame.encode_ns", "ns"},
    {"sweep.frame.decode_ns", "ns"},
    {"sweep.frame.bytes", "bytes"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.dispatch_ms.p50", "ms"},
    {"serve.dispatch_ms.p99", "ms"},
    {"serve.client_ms.p50", "ms"},
    {"serve.batch.items_mean", "count"},
    {"serve.solve_batch_us", "us"},
    {"serve.gen_lag_ms.max", "ms"},
    {"serve.sent", "count"},
    {"serve.completed", "count"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.lost", "count"},
    {"serve.requeues", "count"},
    {"io.artifact_load_us", "us"},
    {"thermal.solve_ms", "ms"},
    {"thermal.share", "ratio"},
    {"thermal.sweeps", "count"},
    {"ppa.eval_us", "us"},
    {"dse.trial_s", "s"},
    {"dse.cell_runs", "count"},
    {"trace.overhead", "ratio"},
    {"fail_frac", "ratio"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host-wide CPU time stolen by the hypervisor so far, seconds (the steal
/// column of /proc/stat; -1 where unavailable). Stamped as a delta so a run
/// slowed by other tenants can be told from one slowed by the code.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return -1.0;
  for (auto& x : v) {
    if (!(stat >> x)) return -1.0;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

const char* tile_mode_name(h3dfact::hdc::kernels::TileMode m) {
  switch (m) {
    case h3dfact::hdc::kernels::TileMode::kPerCall: return "percall";
    case h3dfact::hdc::kernels::TileMode::kTiled: return "tiled";
    default: return "auto";
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve_m16|solve_m256|serve_open|dse_search --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-digest HEX] [--git-commit SHA]\n",
               why);
  return 64;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const auto v = h3dfact::util::parse_u64(value);
      if (!v || *v > static_cast<std::uint64_t>(INT64_MAX)) {
        return usage("--seed must be a non-negative 63-bit integer");
      }
      opt.seed = *v;
    } else if (flag == "--seconds") {
      const auto v = h3dfact::util::parse_f64(value);
      if (!v || !(*v >= 1.0 && *v <= 600.0)) return usage("--seconds out of range");
      opt.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--source-digest") {
      opt.source_digest = value;
    } else if (flag == "--git-commit") {
      opt.git_commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.out_dir.empty()) return usage("--out-dir is required");

  const double steal0 = host_steal_s();
  Result r;
  try {
    if (opt.workload == "solve_m16" || opt.workload == "solve_m256") {
      r = run_solve(opt);
    } else if (opt.workload == "serve_open") {
      r = run_serve(opt);
    } else if (opt.workload == "dse_search") {
      r = run_dse(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (!opt.trace) {
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  const auto& decls = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto& decls_end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::map<std::string, Metric> metrics;
  for (auto d = decls; d != decls_end; ++d) {
    auto it = r.metrics.find(d->name);
    if (it == r.metrics.end()) {
      if (!opt.trace) {
        r.fail(std::string("workload did not measure ") + d->name);
      }
      metrics[d->name] = Metric{0.0, d->unit};  // layer not loaded here
      continue;
    }
    if (it->second.unit != d->unit || !std::isfinite(it->second.value)) {
      r.fail(std::string("bad value or unit for ") + d->name);
    }
    metrics[d->name] = Metric{std::isfinite(it->second.value) ? it->second.value : 0.0,
                              d->unit};
  }
  for (const auto& [name, m] : r.metrics) {
    if (metrics.count(name) == 0) r.fail("undeclared metric " + name);
  }

  const auto& backend = h3dfact::hdc::kernels::active();
  const auto& policy = h3dfact::hdc::kernels::active_policy();
  r.stamp["workload"] = opt.workload;
  r.stamp["seed"] = std::to_string(opt.seed);
  r.stamp["seconds"] = json_number(opt.seconds);
  r.stamp["trace"] = opt.trace ? "1" : "0";
  r.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.stamp["usable_cpus"] = std::to_string(usable_cpus());
  r.stamp["kernel_backend"] = backend.name;
  r.stamp["kernel_policy"] =
      std::string(tile_mode_name(policy.tile_mode)) + " crossover_batch=" +
      std::to_string(policy.tile_crossover_batch) +
      " parallel_min_work=" + std::to_string(policy.parallel_min_work);
  r.stamp["compiler"] = PERFBENCH_COMPILER;
  r.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  r.stamp["git_commit"] = opt.git_commit.empty() ? "unknown" : opt.git_commit;
  r.stamp["source_digest"] = opt.source_digest.empty() ? "unknown" : opt.source_digest;
  r.stamp["peak_rss_mb"] = json_number(peak_rss_mb());
  const double steal1 = host_steal_s();
  char steal[32] = "unknown";
  if (steal0 >= 0.0 && steal1 >= 0.0) {
    std::snprintf(steal, sizeof steal, "%.2f", steal1 - steal0);
  }
  r.stamp["host_steal_s"] = steal;

  std::string stamp = "{\"perfbench\": {\"digest\": " + json_string(r.digest) +
                      ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    stamp += (i ? ", " : "") + json_string(r.problems[i]);
  }
  stamp += "], \"stamp\": {";
  bool first = true;
  for (const auto& [k, v] : r.stamp) {
    stamp += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  stamp += "}}}";

  std::string line = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}}";

  for (const std::string& why : r.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  const std::string copy = opt.out_dir + "/result-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream(copy) << stamp << "\n" << line << "\n";
  std::printf("%s\n%s\n", stamp.c_str(), line.c_str());
  std::fflush(stdout);
  return 0;
}
