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

const std::string* Cli::find(const std::string& key) const {
  read_.insert(key);
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& key) const { return find(key) != nullptr; }

bool Cli::flag(const std::string& key, bool def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  return *v != "false" && *v != "0";
}

std::int64_t Cli::i64(const std::string& key, std::int64_t def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  const auto parsed = parse_i64(*v);
  if (!parsed) bad_value(key, *v, "integer");
  return *parsed;
}

std::uint64_t Cli::u64(const std::string& key, std::uint64_t def,
                       std::uint64_t max) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  const auto parsed = parse_u64(*v);
  if (!parsed || *parsed > max) {
    bad_value(key, *v, "unsigned integer up to " + std::to_string(max));
  }
  return *parsed;
}

double Cli::f64(const std::string& key, double def) const {
  const std::string* v = find(key);
  if (v == nullptr) return def;
  const auto parsed = parse_f64(*v);
  if (!parsed) bad_value(key, *v, "number");
  return *parsed;
}

std::string Cli::str(const std::string& key, std::string def) const {
  const std::string* v = find(key);
  return v == nullptr ? def : *v;
}

void Cli::reject_unread() const {
  std::string unread;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) == 0) unread += (unread.empty() ? "--" : ", --") + key;
  }
  if (!unread.empty()) throw std::invalid_argument("unknown flag " + unread);
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
