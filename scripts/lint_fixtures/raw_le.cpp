// Fixture: a hand-rolled little-endian decode outside src/util/bytes.hpp
// must trip the raw-le rule.
#include <cstdint>

std::uint64_t load(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
