#include "util/simd.hpp"

#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#define SVTOX_SIMD_X86 1
#include <immintrin.h>
#else
#define SVTOX_SIMD_X86 0
#endif

namespace svtox::simd {

bool has_avx2() {
#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

const char* dispatch_name() { return has_avx2() ? "avx2" : "portable"; }

namespace {

#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))

/// Nibble -> 4-lane blend mask (all-ones where the lane's bit is set).
alignas(32) constexpr std::uint64_t kNibbleMask[16][4] = {
    {0, 0, 0, 0},    {~0ULL, 0, 0, 0},         {0, ~0ULL, 0, 0},
    {~0ULL, ~0ULL, 0, 0},                      {0, 0, ~0ULL, 0},
    {~0ULL, 0, ~0ULL, 0},                      {0, ~0ULL, ~0ULL, 0},
    {~0ULL, ~0ULL, ~0ULL, 0},                  {0, 0, 0, ~0ULL},
    {~0ULL, 0, 0, ~0ULL},                      {0, ~0ULL, 0, ~0ULL},
    {~0ULL, ~0ULL, 0, ~0ULL},                  {0, 0, ~0ULL, ~0ULL},
    {~0ULL, 0, ~0ULL, ~0ULL},                  {0, ~0ULL, ~0ULL, ~0ULL},
    {~0ULL, ~0ULL, ~0ULL, ~0ULL},
};

__attribute__((target("avx2"))) void scatter_add_avx2(double* totals,
                                                      std::uint64_t mask,
                                                      double value) {
  const __m256d vval = _mm256_set1_pd(value);
  while (mask != 0) {
    const unsigned group = static_cast<unsigned>(__builtin_ctzll(mask)) >> 2;
    const unsigned bits = static_cast<unsigned>(mask >> (group * 4)) & 0xFu;
    double* slot = totals + group * 4;
    const __m256d lane_mask =
        _mm256_load_pd(reinterpret_cast<const double*>(kNibbleMask[bits]));
    const __m256d current = _mm256_loadu_pd(slot);
    // blendv keeps unselected lanes bit-exact (adding 0.0 instead would
    // rewrite a -0.0 lane to +0.0).
    const __m256d summed = _mm256_add_pd(current, vval);
    _mm256_storeu_pd(slot, _mm256_blendv_pd(current, summed, lane_mask));
    mask &= ~(0xFULL << (group * 4));
  }
}

/// Adds one gate's leak values into the 16 register-resident lanes
/// base..base+15 (four groups of four). Rotating pin p's word right by
/// base - p puts lane base+l's bit at bit l+p, so a per-lane shift by l and
/// a mask of bit p place it straight into the state index.
template <std::uint32_t K>
__attribute__((target("avx2"), always_inline)) inline void select_gate(
    const SelectGate& gate, const std::uint64_t* words, int base,
    const __m256i (&lane_shift)[4], __m256d (&acc)[4]) {
  __m256i pin[K > 0 ? K : 1];
  for (std::uint32_t p = 0; p < K; ++p) {
    pin[p] = _mm256_set1_epi64x(static_cast<long long>(
        std::rotr(words[gate.pins[p]], base - static_cast<int>(p))));
  }
  for (int j = 0; j < 4; ++j) {
    __m256i state = _mm256_setzero_si256();
    for (std::uint32_t p = 0; p < K; ++p) {
      state = _mm256_or_si256(
          state, _mm256_and_si256(_mm256_srlv_epi64(pin[p], lane_shift[j]),
                                  _mm256_set1_epi64x(1LL << p)));
    }
    acc[j] = _mm256_add_pd(acc[j], _mm256_i64gather_pd(gate.leak, state, 8));
  }
}

__attribute__((target("avx2"))) void select_add_avx2(double* totals,
                                                     const std::uint64_t* words,
                                                     const SelectGate* plan,
                                                     std::size_t num_gates) {
  __m256i lane_shift[4];
  for (int j = 0; j < 4; ++j) {
    lane_shift[j] = _mm256_setr_epi64x(4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3);
  }
  for (int base = 0; base < 64; base += 16) {
    __m256d acc[4];
    for (int j = 0; j < 4; ++j) acc[j] = _mm256_loadu_pd(totals + base + 4 * j);
    for (std::size_t g = 0; g < num_gates; ++g) {
      const SelectGate& gate = plan[g];
      switch (gate.num_pins) {
        case 0: select_gate<0>(gate, words, base, lane_shift, acc); break;
        case 1: select_gate<1>(gate, words, base, lane_shift, acc); break;
        case 2: select_gate<2>(gate, words, base, lane_shift, acc); break;
        case 3: select_gate<3>(gate, words, base, lane_shift, acc); break;
        default: select_gate<4>(gate, words, base, lane_shift, acc); break;
      }
    }
    for (int j = 0; j < 4; ++j) _mm256_storeu_pd(totals + base + 4 * j, acc[j]);
  }
}

#endif  // SVTOX_SIMD_X86

}  // namespace

void scatter_add(double* totals, std::uint64_t mask, double value) {
#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  static void (*const fn)(double*, std::uint64_t, double) =
      has_avx2() ? &scatter_add_avx2 : &scatter_add_portable;
  fn(totals, mask, value);
#else
  scatter_add_portable(totals, mask, value);
#endif
}

void select_add(double* totals, const std::uint64_t* words, const SelectGate* plan,
                std::size_t num_gates) {
#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  static void (*const fn)(double*, const std::uint64_t*, const SelectGate*,
                          std::size_t) =
      has_avx2() ? &select_add_avx2 : &select_add_portable;
  fn(totals, words, plan, num_gates);
#else
  select_add_portable(totals, words, plan, num_gates);
#endif
}

}  // namespace svtox::simd
