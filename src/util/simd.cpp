#include "util/simd.hpp"

#include <array>

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

/// kLaneBit[group][j] = the bit lane 4*group+j tests in a packed word.
constexpr std::array<std::array<std::uint64_t, 4>, 16> make_lane_bits() {
  std::array<std::array<std::uint64_t, 4>, 16> bits{};
  for (int group = 0; group < 16; ++group) {
    for (int j = 0; j < 4; ++j) {
      bits[static_cast<std::size_t>(group)][static_cast<std::size_t>(j)] =
          1ULL << (4 * group + j);
    }
  }
  return bits;
}

alignas(32) constexpr auto kLaneBit = make_lane_bits();

__attribute__((target("avx2"))) void select_add1_avx2(double* totals,
                                                      std::uint64_t w0,
                                                      const double* leak) {
  const __m256i v0 = _mm256_set1_epi64x(static_cast<long long>(w0));
  const __m256d l0 = _mm256_set1_pd(leak[0]);
  const __m256d l1 = _mm256_set1_pd(leak[1]);
  for (int group = 0; group < 16; ++group) {
    const __m256i bit = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneBit[static_cast<std::size_t>(group)].data()));
    const __m256d m0 = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(v0, bit), bit));
    double* slot = totals + 4 * group;
    _mm256_storeu_pd(slot, _mm256_add_pd(_mm256_loadu_pd(slot),
                                         _mm256_blendv_pd(l0, l1, m0)));
  }
}

__attribute__((target("avx2"))) void select_add2_avx2(double* totals,
                                                      std::uint64_t w0,
                                                      std::uint64_t w1,
                                                      const double* leak) {
  const __m256i v0 = _mm256_set1_epi64x(static_cast<long long>(w0));
  const __m256i v1 = _mm256_set1_epi64x(static_cast<long long>(w1));
  const __m256d l00 = _mm256_set1_pd(leak[0]);
  const __m256d l01 = _mm256_set1_pd(leak[1]);
  const __m256d l10 = _mm256_set1_pd(leak[2]);
  const __m256d l11 = _mm256_set1_pd(leak[3]);
  for (int group = 0; group < 16; ++group) {
    const __m256i bit = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneBit[static_cast<std::size_t>(group)].data()));
    const __m256d m0 = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(v0, bit), bit));
    const __m256d m1 = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(v1, bit), bit));
    const __m256d lo = _mm256_blendv_pd(l00, l01, m0);
    const __m256d hi = _mm256_blendv_pd(l10, l11, m0);
    double* slot = totals + 4 * group;
    _mm256_storeu_pd(slot, _mm256_add_pd(_mm256_loadu_pd(slot),
                                         _mm256_blendv_pd(lo, hi, m1)));
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

void select_add1(double* totals, std::uint64_t w0, const double* leak) {
#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  static void (*const fn)(double*, std::uint64_t, const double*) =
      has_avx2() ? &select_add1_avx2 : &select_add1_portable;
  fn(totals, w0, leak);
#else
  select_add1_portable(totals, w0, leak);
#endif
}

void select_add2(double* totals, std::uint64_t w0, std::uint64_t w1,
                 const double* leak) {
#if SVTOX_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  static void (*const fn)(double*, std::uint64_t, std::uint64_t, const double*) =
      has_avx2() ? &select_add2_avx2 : &select_add2_portable;
  fn(totals, w0, w1, leak);
#else
  select_add2_portable(totals, w0, w1, leak);
#endif
}

}  // namespace svtox::simd
