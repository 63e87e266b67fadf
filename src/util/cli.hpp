#pragma once
// Minimal command-line flag parser for bench and example binaries.
//
// Supported forms: --flag (bool), --key=value. Every accessor records the
// key it looks up, so once a main has read its flags reject_unread() can
// refuse the ones it never will (a typo, or a flag that no longer exists),
// and any positional argument unless the main read positional().

#include <cstdint>
#include <limits>
#include <map>
#include <set>
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

  /// Throws std::invalid_argument naming every --key on the command line
  /// that no accessor above has looked up, and every positional argument
  /// when positional() was never called: "--json out.json" parses as
  /// --json=true plus a positional "out.json". Call it after the last flag
  /// is read and before the work starts.
  void reject_unread() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    positional_read_ = true;
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  /// The value of `key`, or nullptr; records the lookup either way.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;  ///< every key an accessor looked up
  std::vector<std::string> positional_;
  mutable bool positional_read_ = false;
};

/// The one exit path of every bench and tool main: runs `body` and passes
/// its status through, or prints "[<basename of argv[0]>] <what()>" on
/// stderr and returns 1 when it throws a std::exception.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace h3dfact::util
