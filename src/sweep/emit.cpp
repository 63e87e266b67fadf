#include "sweep/emit.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/parse.hpp"

namespace h3dfact::sweep {

// %g keeps integers clean ("40", not "40.000000") while preserving enough
// digits for the statistics; the emitters are golden-file-tested, so the
// format must never depend on locale or platform printf quirks.
std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Sample values must survive a JSON round trip exactly (the artifact is
// the sweep checkpoint): integral doubles — iteration counts in practice —
// print without exponent truncation, anything else at full precision.
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
       << fmt_g(r.stats.iterations_solved.mean()) << "},\n";
    // The raw per-trial record (exact round-trip fields): everything a
    // resumed run needs to reconstruct TrialStats bit-for-bit.
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

// --- JSON reader ------------------------------------------------------------
// A minimal recursive-descent JSON parser, sufficient for anything the
// emitter above writes (and general enough for hand-edited artifacts).
// Object member order is preserved so coordinate axes keep their
// declaration order through a round trip.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  // Accessor errors are bare ("missing field 'x'"); read_json_string
  // prefixes the artifact source and the cell position, so the surfaced
  // message names file, cell and field without double labels.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      throw std::runtime_error("missing field '" + key + "'");
    }
    return *v;
  }
  [[nodiscard]] double num() const {
    if (kind != Kind::kNumber) {
      throw std::runtime_error("expected a number");
    }
    return number;
  }
  [[nodiscard]] std::size_t uint() const {
    return static_cast<std::size_t>(num());
  }
  [[nodiscard]] const std::string& str() const {
    if (kind != Kind::kString) {
      throw std::runtime_error("expected a string");
    }
    return text;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::runtime_error("trailing content at byte " +
                               std::to_string(pos_));
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at byte " + std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': {
        v.kind = JsonValue::Kind::kObject;
        ++pos_;
        if (consume('}')) return v;
        do {
          std::string key = string_token();
          expect(':');
          v.members.emplace_back(std::move(key), value());
        } while (consume(','));
        expect('}');
        return v;
      }
      case '[': {
        v.kind = JsonValue::Kind::kArray;
        ++pos_;
        if (consume(']')) return v;
        do {
          v.items.push_back(value());
        } while (consume(','));
        expect(']');
        return v;
      }
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.text = string_token();
        return v;
      case 't':
        if (!literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        return v;
      case 'n':
        if (!literal("null")) fail("bad literal");
        return v;
      default: {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
          ++pos_;
        }
        if (pos_ == start) fail("unexpected character");
        v.kind = JsonValue::Kind::kNumber;
        // The scanner bounded the token; the strict parse rejects malformed
        // tails inside it ("1e+" used to read as 1.0 here).
        const auto parsed = util::parse_f64(text_.substr(start, pos_ - start));
        if (!parsed) fail("bad number");
        v.number = *parsed;
        return v;
      }
    }
  }

  std::string string_token() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The emitter only escapes control characters; decode the BMP
          // codepoint as UTF-8 for generality.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

CellResult cell_from_json(const JsonValue& v) {
  CellResult r;
  r.index = v.at("index").uint();
  for (const auto& [axis, label] : v.at("coordinates").members) {
    r.coordinates.emplace_back(axis, label.str());
  }
  for (const auto& [k, val] : v.at("params").members) {
    r.params[k] = val.num();
  }
  for (const auto& [k, val] : v.at("meta").members) {
    r.meta[k] = val.str();
  }
  const JsonValue& config = v.at("config");
  r.dim = config.at("dim").uint();
  r.factors = config.at("factors").uint();
  r.codebook_size = config.at("codebook_size").uint();
  r.trials = config.at("trials").uint();
  r.max_iterations = config.at("max_iterations").uint();
  r.query_flip_prob = config.at("query_flip_prob").num();
  // The seed is emitted as a string to protect its 64-bit range from
  // double-precision JSON consumers.
  const std::string& seed_text = config.at("seed").str();
  const auto seed = util::parse_u64(seed_text);
  if (!seed) {
    throw std::runtime_error("config.seed: bad u64 token '" + seed_text +
                             "'");
  }
  r.seed = *seed;

  const JsonValue& stats = v.at("stats");
  r.stats.trials = stats.at("trials").uint();
  r.stats.solved = stats.at("solved").uint();
  r.stats.correct = stats.at("correct").uint();
  r.stats.cycles = stats.at("cycles").uint();
  for (const JsonValue& x : v.at("iteration_samples").items) {
    r.stats.iteration_samples.push_back(x.num());
  }
  // Rebuild the Welford accumulator in sample order, matching the emitting
  // run's own construction (bit-identical merge downstream).
  for (double x : r.stats.iteration_samples) r.stats.iterations_solved.add(x);
  for (const JsonValue& x : v.at("correct_by_iteration").items) {
    r.stats.correct_by_iteration.push_back(x.uint());
  }
  for (const JsonValue& x : v.at("correct_raw_by_iteration").items) {
    r.stats.correct_raw_by_iteration.push_back(x.uint());
  }
  r.wall_seconds = v.at("wall_seconds").num();
  return r;
}

}  // namespace

SweepDocument read_json_string(const std::string& text,
                               const std::string& source) {
  JsonParser parser(text);
  JsonValue root;
  try {
    root = parser.parse();
  } catch (const std::exception& e) {
    throw std::runtime_error(source + ": " + e.what());
  }
  if (root.kind != JsonValue::Kind::kObject) {
    throw std::runtime_error(source + ": top level must be an object");
  }
  SweepDocument doc;
  try {
    doc.sweep = root.at("sweep").str();
  } catch (const std::exception& e) {
    throw std::runtime_error(source + ": 'sweep': " + e.what());
  }
  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || cells->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error(source + ": 'cells' must be an array");
  }
  doc.cells.reserve(cells->items.size());
  for (std::size_t i = 0; i < cells->items.size(); ++i) {
    try {
      doc.cells.push_back(cell_from_json(cells->items[i]));
    } catch (const std::exception& e) {
      throw std::runtime_error(source + ": cells[" + std::to_string(i) +
                               "]: " + e.what());
    }
  }
  return doc;
}

SweepDocument read_json(std::istream& is, const std::string& source) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return read_json_string(buffer.str(), source);
}

}  // namespace h3dfact::sweep
