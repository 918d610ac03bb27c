// Word-parallel (64-lane) packed simulation.
//
// One machine word holds one bit of 64 independent input vectors, so a
// whole gate evaluates 64 Monte-Carlo lanes in a handful of word ops. The
// kernels come from cellkit::compile_plane_program: each cell's pull-down
// series/parallel expression compiled to a postfix AND/OR program over bit
// planes, flattened here per gate with absolute signal ids. Ternary
// simulation packs 64 partial assignments as two planes per signal
// (value/X, the word-wide generalization of TriMask) and evaluates the
// same programs with Kleene connectives -- exact for every cell whose pins
// drive one device each (all standard cells; verified at compile time),
// with an exhaustive minterm fallback otherwise.
//
// Lane accounting: a batch always carries 64 lanes; callers processing
// `n < 64` tail vectors mask their accumulation with `tail_mask(n)`.
// Nothing in the simulators themselves depends on the active lane count --
// inactive lanes compute garbage that the mask discards. The state-match
// walk below takes the mask explicitly; the simd::select_add accumulation
// over a select_plan writes all 64 lanes, and callers read only the live
// ones.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cellkit/plane_compile.hpp"
#include "netlist/netlist.hpp"
#include "sim/sim.hpp"
#include "util/simd.hpp"

namespace svtox::sim {

/// Which simulation/accumulation implementation a consumer runs.
/// kScalar is the one-vector-at-a-time bit-exact reference; kPacked is the
/// 64-lane word-parallel path. Results are bit-identical (a property test
/// enforces it); the selector exists so the reference stays reachable from
/// every entry point.
enum class SimBackend : std::uint8_t { kScalar, kPacked };

/// Process-wide default backend: kPacked, unless SVTOX_SIM_BACKEND=scalar.
SimBackend default_backend();

/// Active-lane mask for a batch carrying `lanes` (1..64) live vectors.
inline std::uint64_t tail_mask(int lanes) {
  return lanes >= 64 ? ~0ULL : (1ULL << lanes) - 1;
}

/// 64-way bit-parallel 2-valued simulator with per-cell compiled plane
/// programs. Functionally identical to simulate64() but evaluates each
/// gate in O(devices) word ops instead of O(2^k * k), and reuses its
/// signal buffer across batches.
class PackedBoolSim {
 public:
  explicit PackedBoolSim(const netlist::Netlist& netlist);

  const netlist::Netlist& netlist() const { return *netlist_; }

  /// Simulates 64 lanes: `input_words[i]` packs the values of control
  /// point i. Returns one word per signal (lane L of word s = signal s in
  /// vector L); the reference is valid until the next run().
  const std::vector<std::uint64_t>& run(const std::vector<std::uint64_t>& input_words);

  /// Signal words of the last run().
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  const netlist::Netlist* netlist_;
  std::vector<cellkit::PlaneOp> ops_;  ///< All gates' ops, signal-resolved.
  struct GateRange {
    std::int32_t begin = 0;
    std::int32_t end = 0;
    std::int32_t output = 0;
  };
  std::vector<GateRange> gates_;  ///< In topological order.
  std::vector<std::uint64_t> words_;
  int max_stack_ = 0;
};

/// 64-way packed ternary simulator over (value, X) planes.
/// planes()[s] holds lane-packed Tri values of signal s; lanes whose
/// control-point planes encode 0/1/X propagate exactly like
/// simulate_ternary on that lane's assignment.
class PackedTernarySim {
 public:
  explicit PackedTernarySim(const netlist::Netlist& netlist);

  const netlist::Netlist& netlist() const { return *netlist_; }

  /// Simulates 64 partial assignments; `input_planes[i]` packs control
  /// point i. The reference is valid until the next run().
  const std::vector<cellkit::TriWord>& run(
      const std::vector<cellkit::TriWord>& input_planes);

  const std::vector<cellkit::TriWord>& planes() const { return planes_; }

 private:
  void run_generic(int gate, int cell);

  const netlist::Netlist* netlist_;
  std::vector<cellkit::PlaneOp> ops_;
  struct GateRange {
    std::int32_t begin = 0;  ///< begin == end: exhaustive minterm fallback.
    std::int32_t end = 0;
    std::int32_t output = 0;
    std::int32_t gate = 0;
    std::int32_t cell = 0;
  };
  std::vector<GateRange> gates_;  ///< In topological order.
  /// Per library cell: the ON-set / OFF-set state lists of the fallback.
  struct CellStates {
    std::vector<std::uint32_t> on;
    std::vector<std::uint32_t> off;
  };
  std::vector<CellStates> cell_states_;
  std::vector<cellkit::TriWord> planes_;
  int max_stack_ = 0;
};

/// Calls `fn(state, match)` for every local input state of `gate` taken by
/// at least one active lane; `match` has a bit per lane at that state.
/// Every active lane appears in exactly one callback. The word-parallel
/// replacement for a per-lane local_state64 loop.
template <typename Fn>
inline void for_each_state_match(const netlist::FlatNetlist& flat, std::uint32_t gate,
                                 const std::vector<std::uint64_t>& signal_words,
                                 std::uint64_t lane_mask, Fn&& fn) {
  const std::uint32_t* pins = flat.fanins(gate);
  const int k = static_cast<int>(flat.fanin_count(gate));
  std::uint64_t pin_words[8];
  for (int p = 0; p < k; ++p) {
    pin_words[p] = signal_words[pins[p]];
  }
  const std::uint32_t num_states = 1u << k;
  for (std::uint32_t state = 0; state < num_states; ++state) {
    std::uint64_t match = lane_mask;
    for (int p = 0; p < k && match != 0; ++p) {
      match &= ((state >> p) & 1u) ? pin_words[p] : ~pin_words[p];
    }
    if (match != 0) fn(state, match);
  }
}

/// The simd::select_add plan of `flat`'s gates in index order: each gate's
/// fanin signal ids as word indices and `leak_row(gate)`, its leak values
/// indexed by local state. Throws ContractError for a gate wider than
/// simd::kMaxSelectPins.
std::vector<simd::SelectGate> select_plan(
    const netlist::FlatNetlist& flat,
    const std::function<const double*(std::uint32_t)>& leak_row);

/// Per-gate local-state occurrence counts over `num_vectors` uniform random
/// vectors (the Monte-Carlo state histogram): counts[g][s] = how many
/// vectors put gate g in local state s. Byte-identical across backends;
/// consumes the same Rng stream as monte_carlo_leakage for the same seed.
std::vector<std::vector<std::uint64_t>> state_histogram(
    const netlist::Netlist& netlist, int num_vectors, std::uint64_t seed,
    SimBackend backend = default_backend());

}  // namespace svtox::sim
