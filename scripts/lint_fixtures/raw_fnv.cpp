// Fixture: a hand-rolled FNV-1a outside src/util/hash.hpp must trip the
// raw-fnv rule, whatever the literal's case or suffix.
#include <cstdint>
#include <string>

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
