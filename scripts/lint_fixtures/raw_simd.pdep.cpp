// Fixture: the BMI2 deposit/extract intrinsics outside the kernel backends
// must trip the raw-simd rule on their own (no intrinsic header here, so
// only the tokens can fire).
#include <cstdint>

std::uint64_t spread(std::uint64_t src, std::uint64_t mask) {
  return _pdep_u64(src, mask) | _pext_u32(static_cast<unsigned>(src), 0xF0u);
}
