// Gate-tree search: per-gate cell-version selection for a fixed sleep
// vector, under the circuit delay constraint.
//
// Each search comes in two forms: a from-scratch convenience function
// (builds its contexts, timing state and starting configuration per call,
// and times its trials through the problem's shared load-sliced tables)
// and an overload over caller-owned reusable state. The overloads exist so
// a state-search worker (opt::LeafEvaluator) can amortize the
// leaf-invariant setup -- full 2-valued simulation, canonicalization, a
// heap-allocated TimingState and the all-fastest analyze() -- across the
// thousands of leaves it visits; both forms return bit-identical results.
//
// The from-scratch greedy can also run in lanes (gate_lanes): a trial on
// a gate re-times only the gates it reaches, which read only signals of
// the gate's own weakly connected component or control points, so each
// component descends on its own thread over one shared timing state, in
// the global visit order restricted to it. Same configs, leakage and
// delay bits as the serial descent.
#pragma once

#include <cstdint>
#include <vector>

#include "opt/problem.hpp"
#include "opt/solution.hpp"
#include "sta/sta.hpp"

namespace svtox::opt {

/// Order in which the greedy traversal visits gates.
enum class GateOrder : std::uint8_t {
  kBySavings,     ///< Descending potential leakage savings (default).
  kTopological,   ///< Netlist topological order.
  kReverseTopological,
};

/// Per-gate context shared by the gate-tree searches: the simulated local
/// input state under the sleep vector plus its canonicalization (identity
/// when the problem disables pin reordering).
struct GateContext {
  std::uint32_t raw_state = 0;
  std::uint32_t canonical_state = 0;
  cellkit::PinMapping mapping;
};

/// Contexts of every gate under `sleep_vector`: from-scratch 2-valued
/// simulation plus the problem's memoized canonicalization.
std::vector<GateContext> build_contexts(const AssignmentProblem& problem,
                                        const std::vector<bool>& sleep_vector);

/// Every gate at its fastest variant with the contexts' pin mappings --
/// the gate-tree searches' starting configuration.
sim::CircuitConfig initial_config(const netlist::Netlist& netlist,
                                  const std::vector<GateContext>& contexts);

/// Lanes of the greedy descent: the weakly connected components of the
/// gate graph, where gates join only through gate->driver edges (two gates
/// that share only a control point sit in separate lanes).
struct GateLanes {
  int count = 0;
  /// Per gate, in [0, count); lanes are numbered by first appearance in
  /// gate-index order.
  std::vector<int> lane_of;
};

GateLanes gate_lanes(const netlist::Netlist& netlist);

/// The paper's single downward gate-tree traversal: gates are visited once;
/// at each gate the variants applicable to its (canonicalized) local state
/// are tried in ascending leakage order and the first one that keeps the
/// circuit delay within the constraint is kept. Delay feasibility is checked
/// with incremental STA (accepting a variant never revisits earlier gates).
///
/// With `threads` > 1 the lanes (gate_lanes) descend on up to that many
/// threads, sharing one timing state; the result is bit-identical to one
/// thread. A circuit with one lane, or whose all-fastest delay already
/// exceeds the constraint, takes the serial descent.
///
/// Returns the full Solution for `sleep_vector` (config, leakage, delay).
Solution assign_gates_greedy(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector,
                             GateOrder order = GateOrder::kBySavings, int threads = 1);

/// Greedy gate-tree search over caller-owned reusable state. Preconditions:
/// `contexts` matches `sleep_vector`, `config` is all-fastest variants with
/// the contexts' mappings, and `baseline` snapshots the timing of that
/// configuration. `timing` is clobbered (restored from `baseline` on
/// entry); `config`'s variants are reset to fastest before returning so the
/// buffers are immediately reusable. Bit-identical to the from-scratch
/// overload.
///
/// `downstream_lb_ps` (optional) is sta::downstream_delay_lower_bounds_ps
/// of the problem's netlist, load slices and boundary: with it, infeasible
/// variant trials abort their timing propagation as soon as the delay
/// constraint is provably exceeded (sta::update_after_gate_change_bounded)
/// instead of re-timing the whole fanout cone. The accept/reject decisions and every returned value stay
/// bit-identical; only rejected trials get cheaper.
Solution assign_gates_greedy(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector, GateOrder order,
                             const std::vector<GateContext>& contexts,
                             sim::CircuitConfig& config, sta::TimingState& timing,
                             const sta::TimingSnapshot& baseline,
                             const std::vector<double>* downstream_lb_ps = nullptr);

/// Exact gate-tree branch-and-bound for a fixed sleep vector: explores
/// variant choices depth-first with edges sorted by leakage, pruning on
/// (partial leakage + optimistic remainder) against the incumbent and on
/// delay infeasibility of the fastest completion. Exponential; intended for
/// small circuits and for validating the greedy. `max_nodes` caps the
/// search (0 = unlimited).
Solution assign_gates_exact(const AssignmentProblem& problem,
                            const std::vector<bool>& sleep_vector,
                            std::uint64_t max_nodes = 0);

/// Exact gate-tree search over caller-owned reusable state; the same
/// contract (including `downstream_lb_ps`) as the greedy overload above.
Solution assign_gates_exact(const AssignmentProblem& problem,
                            const std::vector<bool>& sleep_vector,
                            std::uint64_t max_nodes,
                            const std::vector<GateContext>& contexts,
                            sim::CircuitConfig& config, sta::TimingState& timing,
                            const sta::TimingSnapshot& baseline,
                            const std::vector<double>* downstream_lb_ps = nullptr);

/// No-assignment evaluation: every gate at its fastest version; reports the
/// leakage of `sleep_vector` alone (the state-only baseline's leaf).
Solution evaluate_state_only(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector);

}  // namespace svtox::opt
