#pragma once
// The repository's one little-endian byte codec. The sweep/serve wire
// protocol (src/sweep/protocol.*) and the H3DA artifact payloads (src/io/)
// write their scalars with put_* and read them back through ByteReader, so
// both lay out a u64 the same way and bound every read the same way.
// Integers go least significant byte first whatever the host's byte order;
// scripts/lint_invariants.py (raw-le) bans byte-shift codec loops elsewhere.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace h3dfact::util {

namespace detail {

/// Append the little-endian bytes of the unsigned integer `v`.
template <typename T>
void put_le(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(bytes, sizeof(T));
}

/// The little-endian unsigned integer at `p` (unchecked: the caller bounds
/// the read).
template <typename T>
T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));  // one load; the same value as the loop
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return v;
}

}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) {
  detail::put_le(out, v);
}
inline void put_u32(std::string& out, std::uint32_t v) {
  detail::put_le(out, v);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  detail::put_le(out, v);
}
/// Unchecked loads: the caller bounds the read.
inline std::uint32_t load_u32(const char* p) {
  return detail::load_le<std::uint32_t>(p);
}
inline std::uint64_t load_u64(const char* p) {
  return detail::load_le<std::uint64_t>(p);
}

/// The IEEE-754 bit pattern of `v` as a little-endian u64.
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// `n` words, each a little-endian u64 (the writer side of
/// ByteReader::words).
inline void put_words(std::string& out, const std::uint64_t* w,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) put_u64(out, w[i]);
}

/// A u64 length prefix, then the bytes.
inline void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Sequential reader over encoded bytes. Every accessor checks the bytes
/// left before it reads, and a failure calls fail(), which throws
/// std::runtime_error("<context>: <detail>"); io::PayloadReader overrides it
/// to throw io::ArtifactError. Only the compares are inline: the messages
/// are built out of line (bytes.cpp), so a decode costs what its loads cost.
class ByteReader {
 public:
  /// `context` must outlive the reader (callers pass string literals).
  ByteReader(std::string_view bytes, const char* context)
      : data_(bytes.data()), len_(bytes.size()), context_(context) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A u64 length prefix, then that many bytes.
  std::string str() {
    const std::uint64_t n = u64();
    if (n > left()) fail_short(n, 1);
    std::string s(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// `n` little-endian u64 words.
  std::vector<std::uint64_t> words(std::uint64_t n) {
    if (n > left() / 8) fail_short(n, 8);
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
    for (std::uint64_t& w : out) w = take<std::uint64_t>();
    return out;
  }

  /// A u64 count of list elements that each encode to at least
  /// `min_elem_bytes` bytes. Fails when that many cannot fit in the bytes
  /// left, so a hostile count never sizes an allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (n > left() / min_elem_bytes) fail_short(n, min_elem_bytes);
    return static_cast<std::size_t>(n);
  }

  /// Fails unless every byte was consumed (strict decoders call this last).
  void expect_exhausted() const {
    if (pos_ != len_) fail_trailing();
  }

 protected:
  /// Throws the reader's error type; every override must throw.
  [[noreturn]] virtual void fail(const std::string& detail) const;

 private:
  [[nodiscard]] std::size_t left() const { return len_ - pos_; }

  template <typename T>
  T take() {
    if (sizeof(T) > left()) fail_short(sizeof(T), 1);
    const T v = detail::load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  /// `n` elements of `elem_bytes` each do not fit in the bytes left.
  [[noreturn]] void fail_short(std::uint64_t n, std::size_t elem_bytes) const;
  [[noreturn]] void fail_trailing() const;

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace h3dfact::util
