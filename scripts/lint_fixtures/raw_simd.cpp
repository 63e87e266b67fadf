// Fixture: SIMD intrinsics outside the kernel backends must trip the
// raw-simd rule.
#include <emmintrin.h>

int first_lane_sum(const int* a, const int* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return _mm_cvtsi128_si32(_mm_add_epi32(va, vb));
}
