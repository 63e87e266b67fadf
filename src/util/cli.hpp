#pragma once
// Minimal command-line flag parser for bench and example binaries.
//
// Supported forms: --flag (bool), --key=value, --key value.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace h3dfact::util {

/// Parsed command line with typed accessors and defaults.
class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] bool flag(const std::string& key, bool def = false) const;
  [[nodiscard]] std::int64_t i64(const std::string& key, std::int64_t def) const;
  /// Unsigned flag: rejects a leading '-', overflow and values above `max`
  /// (pass the target type's maximum before narrowing) by flag name.
  [[nodiscard]] std::uint64_t u64(
      const std::string& key, std::uint64_t def,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] double f64(const std::string& key, double def) const;
  [[nodiscard]] std::string str(const std::string& key, std::string def) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// The one exit path of every bench and tool main: runs `body` and passes
/// its status through, or prints "[<basename of argv[0]>] <what()>" on
/// stderr and returns 1 when it throws a std::exception.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace h3dfact::util
