// Small SIMD kernels behind runtime dispatch.
//
// The packed simulation subsystem (sim/packed.hpp) does its heavy lifting
// with portable std::uint64_t word ops; the inner loops below are the
// only places that additionally benefit from explicit vector instructions:
//
//  * scatter_add -- "add `value` into totals[lane] for every set bit of
//    `mask`", the per-state lane accumulation of the packed leakage
//    kernels. The portable path walks set bits (ctz); the AVX2 path
//    processes four lanes per blend-add.
//  * select_add1 / select_add2 -- the fused form used by the Monte-Carlo
//    leakage accumulation for 1- and 2-input gates (the bulk of every
//    netlist): each lane reads its gate-local state directly from the
//    packed pin words and adds the matching leak-table entry, so a gate
//    costs one branchless sweep over the 64 lanes instead of one
//    scatter_add per state. The AVX2 path selects the leak value with
//    blendv chains keyed on per-lane bit tests.
//
// Every variant is bit-identical to its portable reference (the AVX2
// scatter_add preserves untouched lanes exactly via blendv rather than
// adding 0.0, which would rewrite -0.0 lanes), so dispatch never changes
// results -- a property test drives all variants against the reference.
// AVX2 use is decided once per process from CPUID; non-x86 builds compile
// the portable paths only.
#pragma once

#include <cstdint>
#include <cstddef>

namespace svtox::simd {

/// True when the running CPU supports AVX2 and the build can emit it.
/// Cached after the first call; always false on non-x86 targets.
bool has_avx2();

/// Human-readable name of the dispatched implementation ("avx2" or
/// "portable"); recorded in benchmark provenance.
const char* dispatch_name();

/// totals[lane] += value for every set bit `lane` of `mask`. Lanes whose
/// bit is clear are left bit-exactly untouched.
void scatter_add(double* totals, std::uint64_t mask, double value);

/// Portable reference for scatter_add (exposed for tests and benches).
inline void scatter_add_portable(double* totals, std::uint64_t mask, double value) {
  while (mask != 0) {
    totals[static_cast<std::size_t>(__builtin_ctzll(mask))] += value;
    mask &= mask - 1;
  }
}

/// totals[lane] += leak[bit(w0, lane)] for ALL 64 lanes (unmasked: callers
/// with fewer than 64 live lanes must simply never read the tail lanes).
/// `leak` holds the two per-state values of a 1-input gate.
void select_add1(double* totals, std::uint64_t w0, const double* leak);

/// totals[lane] += leak[bit(w0, lane) | bit(w1, lane) << 1] for ALL 64
/// lanes. `leak` holds the four per-state values of a 2-input gate, state
/// bit p = pin p (the cellkit local-state convention).
void select_add2(double* totals, std::uint64_t w0, std::uint64_t w1,
                 const double* leak);

/// Portable reference for select_add1 (exposed for tests and benches).
inline void select_add1_portable(double* totals, std::uint64_t w0,
                                 const double* leak) {
  for (int lane = 0; lane < 64; ++lane) {
    totals[lane] += leak[(w0 >> lane) & 1u];
  }
}

/// Portable reference for select_add2 (exposed for tests and benches).
inline void select_add2_portable(double* totals, std::uint64_t w0,
                                 std::uint64_t w1, const double* leak) {
  for (int lane = 0; lane < 64; ++lane) {
    totals[lane] += leak[((w0 >> lane) & 1u) | (((w1 >> lane) & 1u) << 1)];
  }
}

}  // namespace svtox::simd
