#include "sweep/emit.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "io/artifact.hpp"
#include "sweep/protocol.hpp"
#include "util/bytes.hpp"

namespace h3dfact::sweep {

// %g keeps integers clean ("40", not "40.000000") while preserving enough
// digits for the statistics; the emitters are golden-file-tested, so the
// format must never depend on locale or platform printf quirks.
std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Sample values print exactly: integral doubles — iteration counts in
// practice — without exponent truncation, anything else at full precision.
std::string fmt_exact(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// Column unions across the whole result set, so a ragged grid (cells with
// differing params/meta) still emits a rectangular table.
std::vector<std::string> axis_columns(std::span<const CellResult> results) {
  std::vector<std::string> axes;
  std::set<std::string> seen;
  for (const CellResult& r : results) {
    for (const auto& [axis, label] : r.coordinates) {
      (void)label;
      if (seen.insert(axis).second) axes.push_back(axis);
    }
  }
  return axes;
}

template <typename Map>
std::vector<std::string> key_union(std::span<const CellResult> results,
                                   Map CellResult::* member) {
  std::set<std::string> keys;
  for (const CellResult& r : results) {
    for (const auto& [k, v] : r.*member) {
      (void)v;
      keys.insert(k);
    }
  }
  return {keys.begin(), keys.end()};
}

}  // namespace

void write_csv(std::ostream& os, std::span<const CellResult> results) {
  const std::vector<std::string> axes = axis_columns(results);
  const std::vector<std::string> params =
      key_union(results, &CellResult::params);
  const std::vector<std::string> meta = key_union(results, &CellResult::meta);

  os << "cell";
  for (const auto& a : axes) os << ',' << csv_quote(a);
  for (const auto& p : params) os << ',' << csv_quote(p);
  os << ",dim,factors,codebook_size,trials,max_iterations,query_flip_prob,"
        "seed,solved,correct,cycles,accuracy,accuracy_ci,solve_rate,"
        "median_iterations,iterations_p99,wall_seconds";
  for (const auto& m : meta) os << ',' << csv_quote(m);
  os << '\n';

  for (const CellResult& r : results) {
    os << r.index;
    for (const auto& a : axes) os << ',' << csv_quote(r.coordinate(a));
    for (const auto& p : params) {
      auto it = r.params.find(p);
      os << ',' << (it == r.params.end() ? "" : fmt_g(it->second));
    }
    os << ',' << r.dim << ',' << r.factors << ',' << r.codebook_size << ','
       << r.trials << ',' << r.max_iterations << ','
       << fmt_g(r.query_flip_prob) << ',' << r.seed << ',' << r.stats.solved
       << ',' << r.stats.correct << ',' << r.stats.cycles << ','
       << fmt_g(r.stats.accuracy()) << ',' << fmt_g(r.stats.accuracy_ci())
       << ',' << fmt_g(r.stats.solve_rate()) << ','
       << fmt_g(r.stats.median_iterations()) << ','
       << fmt_g(r.stats.iterations_quantile(0.99)) << ','
       << fmt_g(r.wall_seconds);
    for (const auto& m : meta) {
      auto it = r.meta.find(m);
      os << ',' << (it == r.meta.end() ? "" : csv_quote(it->second));
    }
    os << '\n';
  }
}

void write_json(std::ostream& os, const std::string& sweep_name,
                std::span<const CellResult> results) {
  os << "{\n  \"sweep\": " << json_quote(sweep_name) << ",\n  \"cells\": [";
  bool first_cell = true;
  for (const CellResult& r : results) {
    os << (first_cell ? "\n" : ",\n");
    first_cell = false;
    os << "    {\n      \"index\": " << r.index << ",\n";

    os << "      \"coordinates\": {";
    bool first = true;
    for (const auto& [axis, label] : r.coordinates) {
      os << (first ? "" : ", ") << json_quote(axis) << ": "
         << json_quote(label);
      first = false;
    }
    os << "},\n      \"params\": {";
    first = true;
    for (const auto& [k, v] : r.params) {
      os << (first ? "" : ", ") << json_quote(k) << ": " << fmt_g(v);
      first = false;
    }
    os << "},\n      \"meta\": {";
    first = true;
    for (const auto& [k, v] : r.meta) {
      os << (first ? "" : ", ") << json_quote(k) << ": " << json_quote(v);
      first = false;
    }
    // The seed is a full 64-bit value: emit as a string so JSON consumers
    // limited to double-precision numbers cannot corrupt it.
    os << "},\n      \"config\": {\"dim\": " << r.dim
       << ", \"factors\": " << r.factors
       << ", \"codebook_size\": " << r.codebook_size
       << ", \"trials\": " << r.trials
       << ", \"max_iterations\": " << r.max_iterations
       << ", \"query_flip_prob\": " << fmt_g(r.query_flip_prob)
       << ", \"seed\": \"" << r.seed << "\"},\n";
    os << "      \"stats\": {\"trials\": " << r.stats.trials
       << ", \"solved\": " << r.stats.solved
       << ", \"correct\": " << r.stats.correct
       << ", \"cycles\": " << r.stats.cycles
       << ", \"accuracy\": " << fmt_g(r.stats.accuracy())
       << ", \"accuracy_ci\": " << fmt_g(r.stats.accuracy_ci())
       << ", \"solve_rate\": " << fmt_g(r.stats.solve_rate())
       << ", \"median_iterations\": " << fmt_g(r.stats.median_iterations())
       << ", \"iterations_p99\": "
       << fmt_g(r.stats.iterations_quantile(0.99))
       << ", \"mean_iterations_solved\": "
       << fmt_g(r.stats.mean_iterations_solved()) << "},\n";
    // The raw per-trial record, printed exactly.
    os << "      \"iteration_samples\": [";
    first = true;
    for (double x : r.stats.iteration_samples) {
      os << (first ? "" : ", ") << fmt_exact(x);
      first = false;
    }
    os << "],\n      \"correct_by_iteration\": [";
    first = true;
    for (std::size_t x : r.stats.correct_by_iteration) {
      os << (first ? "" : ", ") << x;
      first = false;
    }
    os << "],\n      \"correct_raw_by_iteration\": [";
    first = true;
    for (std::size_t x : r.stats.correct_raw_by_iteration) {
      os << (first ? "" : ", ") << x;
      first = false;
    }
    os << "],\n";
    os << "      \"wall_seconds\": " << fmt_g(r.wall_seconds) << "\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string csv_string(std::span<const CellResult> results) {
  std::ostringstream os;
  write_csv(os, results);
  return os.str();
}

std::string json_string(const std::string& sweep_name,
                        std::span<const CellResult> results) {
  std::ostringstream os;
  write_json(os, sweep_name, results);
  return os.str();
}

// --- checkpoint -------------------------------------------------------------

void write_checkpoint(const std::string& path, const std::string& sweep_name,
                      std::uint64_t fingerprint,
                      std::span<const CellResult> cells) {
  std::string payload;
  util::put_str(payload, sweep_name);
  util::put_u64(payload, fingerprint);
  util::put_u64(payload, cells.size());
  for (const CellResult& r : cells) util::put_str(payload, encode_result(0, r));
  io::ArtifactWriter writer;
  writer.add_section(io::SectionKind::kSweepCells, std::move(payload));
  writer.write(path);
}

std::vector<CellResult> read_checkpoint(const std::string& path,
                                        const SweepSpec& spec,
                                        std::uint64_t fingerprint) {
  std::error_code ignored;  // an unreachable path reads as no checkpoint
  if (!std::filesystem::exists(path, ignored)) return {};
  std::string problem;
  try {
    const io::Artifact artifact = io::Artifact::load(path, io::LoadMode::kHeap);
    io::PayloadReader in =
        artifact.reader(artifact.require_one(io::SectionKind::kSweepCells));
    const std::string name = in.str();
    if (name != spec.name) {
      throw std::runtime_error("it belongs to sweep '" + name +
                               "' (use a distinct --checkpoint path per grid)");
    }
    if (in.u64() != fingerprint) {
      throw std::runtime_error("it was written for another grid (the spec "
                               "fingerprint differs)");
    }
    const std::size_t n = in.count(8);  // each cell has a u64 length prefix
    const std::size_t total = spec.cell_count();
    std::vector<CellResult> cells;
    for (std::size_t i = 0; i < n; ++i) {
      auto [block_begin, r] = decode_result(in.str());
      const char* fault = nullptr;
      if (block_begin != 0) {
        fault = " is a trial block, not a whole cell";
      } else if (r.index >= total) {
        fault = " is outside the grid";
      } else if (!cells.empty() && r.index <= cells.back().index) {
        fault = " is repeated or out of order";
      } else if (r.stats.trials != spec.cell(r.index).config.trials) {
        fault = " is incomplete";
      }
      if (fault != nullptr) {
        throw std::runtime_error("cell " + std::to_string(r.index) + fault);
      }
      cells.push_back(std::move(r));
    }
    in.expect_exhausted();
    return cells;
  } catch (const io::ArtifactError& e) {
    problem = e.detail();
  } catch (const std::runtime_error& e) {
    problem = e.what();
  }
  throw std::runtime_error("checkpoint '" + path + "' cannot resume sweep '" +
                           spec.name + "': " + problem +
                           "; delete it to start over");
}

}  // namespace h3dfact::sweep
