// Small SIMD kernels behind runtime dispatch.
//
// The packed simulation subsystem (sim/packed.hpp) does its heavy lifting
// with portable std::uint64_t word ops; the inner loops below are the
// only places that additionally benefit from explicit vector instructions:
//
//  * scatter_add -- "add `value` into totals[lane] for every set bit of
//    `mask`", the per-state lane accumulation of the packed prefix bounds
//    (opt/packed_bound.hpp). The portable path walks set bits (ctz); the
//    AVX2 path processes four lanes per blend-add.
//  * select_add -- the leakage accumulation of the Monte-Carlo baseline
//    and the state-only probe sweep: it walks a flat per-gate plan (pin
//    word indices and a leak row indexed by the gate's local state) and
//    adds leak[state(lane)] into every lane, for every fanin count up to
//    kMaxSelectPins. The AVX2 path keeps one 16-lane block of totals in
//    registers across the whole plan (four sweeps per 64 lanes), builds
//    each lane's state index with variable shifts and picks the leak
//    value with a 64-bit-index gather.
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

/// Widest gate a select_add plan may hold (the library's 4-input cells).
inline constexpr std::uint32_t kMaxSelectPins = 4;

/// One gate of a select_add plan.
struct SelectGate {
  std::uint32_t num_pins = 0;               ///< 0..kMaxSelectPins.
  std::uint32_t pins[kMaxSelectPins] = {};  ///< Word index per pin.
  const double* leak = nullptr;             ///< 1 << num_pins values.
};

/// For every gate of `plan` in order and for ALL 64 lanes (unmasked:
/// callers with fewer live lanes never read the tail lanes):
///   totals[lane] += gate.leak[state], state bit p = bit `lane` of
///   words[gate.pins[p]] (the cellkit local-state convention).
/// Each lane takes exactly one add per gate, in plan order.
void select_add(double* totals, const std::uint64_t* words, const SelectGate* plan,
                std::size_t num_gates);

/// Portable reference for select_add (exposed for tests and benches).
inline void select_add_portable(double* totals, const std::uint64_t* words,
                                const SelectGate* plan, std::size_t num_gates) {
  for (std::size_t g = 0; g < num_gates; ++g) {
    const SelectGate& gate = plan[g];
    for (int lane = 0; lane < 64; ++lane) {
      std::uint32_t state = 0;
      for (std::uint32_t p = 0; p < gate.num_pins; ++p) {
        state |= static_cast<std::uint32_t>((words[gate.pins[p]] >> lane) & 1u) << p;
      }
      totals[lane] += gate.leak[state];
    }
  }
}

}  // namespace svtox::simd
