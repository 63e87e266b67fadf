#pragma once
// The repository's single strict number-parse choke point.
//
// Every user-supplied numeric token — CLI flags (util::Cli), sweep grid
// params (sweep::param_i64/param_f64), design-space tokens, cell filters
// (sweep/runner.cpp) — parses through these functions. They accept a
// token if and only if the ENTIRE token is one number: no leading
// whitespace (strtoll/strtod silently skip it), no trailing garbage
// ("--trials=1e4" must not parse as 1), no empty tokens, no overflow.
// Callers turn nullopt into a loud, context-named error.
//
// scripts/lint_invariants.py bans the raw strto*/ato*/sto* families
// everywhere else in src/, bench/ and examples/ so a new parse site cannot
// quietly reintroduce the silent misparses this file exists to kill.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace h3dfact::util {

/// Strict base-10 signed integer parse of the whole token.
inline std::optional<std::int64_t> parse_i64(const std::string& token) {
  if (token.empty() ||
      std::isspace(static_cast<unsigned char>(token.front())) != 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const std::int64_t parsed = std::strtoll(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) {
    return std::nullopt;
  }
  return parsed;
}

/// Strict base-10 unsigned integer parse of the whole token. Rejects a
/// leading '-' outright: strtoull would wrap "-1" to 2^64-1 silently.
inline std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty() || token.front() == '-' ||
      std::isspace(static_cast<unsigned char>(token.front())) != 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) {
    return std::nullopt;
  }
  return parsed;
}

/// Strict parse of a whole decimal token, or of a whole hexadecimal one
/// behind a "0x"/"0X" prefix (fingerprints print as hex).
inline std::optional<std::uint64_t> parse_u64_dec_or_hex(
    const std::string& token) {
  if (token.rfind("0x", 0) != 0 && token.rfind("0X", 0) != 0) {
    return parse_u64(token);
  }
  // Hex digits only: strtoull would also take a sign or a second "0x".
  constexpr const char* kHexDigits = "0123456789abcdefABCDEF";
  if (token.size() == 2 ||
      token.find_first_not_of(kHexDigits, 2) != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const std::uint64_t parsed = std::strtoull(token.c_str() + 2, nullptr, 16);
  if (errno == ERANGE) return std::nullopt;
  return parsed;
}

/// Strict floating-point parse of the whole token (accepts everything
/// strtod does — decimal, scientific, inf/nan — but only as a full token).
inline std::optional<double> parse_f64(const std::string& token) {
  if (token.empty() ||
      std::isspace(static_cast<unsigned char>(token.front())) != 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (errno == ERANGE || end != token.c_str() + token.size()) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace h3dfact::util
