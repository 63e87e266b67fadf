#include "util/bytes.hpp"

#include <cstdlib>
#include <stdexcept>

namespace h3dfact::util {

void ByteReader::fail(const std::string& detail) const {
  throw std::runtime_error(std::string(context_) + ": " + detail);
}

// fail() is virtual, so the compiler cannot see that it never returns; the
// std::abort() calls below only say so (every override throws).

void ByteReader::fail_short(std::uint64_t n, std::size_t elem_bytes) const {
  fail("truncated: need " + std::to_string(n) +
       (elem_bytes == 1 ? "" : " x " + std::to_string(elem_bytes)) +
       " bytes at offset " + std::to_string(pos_) + " of " +
       std::to_string(len_));
  std::abort();
}

void ByteReader::fail_trailing() const {
  fail(std::to_string(left()) + " trailing byte(s)");
  std::abort();
}

}  // namespace h3dfact::util
