#include "util/cli.hpp"

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/parse.hpp"

namespace h3dfact::util {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("flag --" + key + "=\"" + value +
                              "\" is not a valid " + expected);
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    // Only the unambiguous forms are supported: --key=value and --flag.
    // (A separated "--key value" form would make "--flag positional"
    // ambiguous.)
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      kv_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) > 0; }

bool Cli::flag(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second != "false" && it->second != "0";
}

std::int64_t Cli::i64(const std::string& key, std::int64_t def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const auto parsed = parse_i64(it->second);
  if (!parsed) bad_value(key, it->second, "integer");
  return *parsed;
}

std::uint64_t Cli::u64(const std::string& key, std::uint64_t def,
                       std::uint64_t max) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const auto parsed = parse_u64(it->second);
  if (!parsed || *parsed > max) {
    bad_value(key, it->second,
              "unsigned integer up to " + std::to_string(max));
  }
  return *parsed;
}

double Cli::f64(const std::string& key, double def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const auto parsed = parse_f64(it->second);
  if (!parsed) bad_value(key, it->second, "number");
  return *parsed;
}

std::string Cli::str(const std::string& key, std::string def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int run_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string program = argc > 0 ? argv[0] : "";
    const std::string name = program.substr(program.rfind('/') + 1);
    std::fprintf(stderr, "[%s] %s\n", name.c_str(), e.what());
    return 1;
  }
}

}  // namespace h3dfact::util
