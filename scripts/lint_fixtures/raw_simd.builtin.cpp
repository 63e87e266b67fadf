// Fixture: the compiler builtins behind PDEP/PEXT need no header, and must
// trip the raw-simd rule outside the kernel backends just the same.
#include <cstdint>

std::uint64_t spread(std::uint64_t src, std::uint64_t mask) {
  return __builtin_ia32_pdep_di(src, mask) ^ __builtin_ia32_pext_di(src, mask);
}
