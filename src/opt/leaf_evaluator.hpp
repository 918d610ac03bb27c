// Amortized leaf evaluation for the state-tree search.
//
// Every state-tree leaf fixes a sleep vector and runs a gate-tree search
// (greedy, exact, or the state-only baseline). Done from scratch, each leaf
// pays for work that barely changes between neighboring leaves: a full
// 2-valued simulation, per-gate canonicalization, a freshly heap-allocated
// TimingState and its all-fastest analyze(). A LeafEvaluator owns all of
// that state once per worker and keeps it synchronized with the leaf
// stream:
//
//  * sim::IncrementalBoolSim re-evaluates only the fanout cones of the
//    inputs that differ from the previous leaf's sleep vector;
//  * per-gate contexts (raw state, canonical state, pin mapping) are
//    refreshed only for the gates those cones touched, using the problem's
//    memoized canonicalization;
//  * the all-fastest timing baseline is computed once at construction and
//    recalled per leaf via sta::TimingSnapshot (the fastest configuration's
//    arrival times are independent of the sleep vector and of the
//    symmetric-pin mappings, so one analyze() serves every leaf);
//  * the reusable config/timing buffers feed the reusable-state overloads
//    of assign_gates_greedy / assign_gates_exact;
//  * a per-signal downstream-delay lower bound (computed once from the
//    problem's load slices and boundary seeds) lets those searches abort
//    the timing propagation of delay-infeasible variant trials early --
//    the dominant cost of a greedy leaf is re-timing the full fanout cone
//    of trials that end up rejected and reverted.
//
// Results are bit-identical to the from-scratch free functions; a property
// test enforces this on random and bundled circuits.
#pragma once

#include <cstdint>
#include <vector>

#include "opt/gate_assign.hpp"
#include "opt/problem.hpp"
#include "opt/solution.hpp"
#include "sim/incremental.hpp"
#include "sta/sta.hpp"

namespace svtox::opt {

class LeafEvaluator {
 public:
  /// Pays the one-time setup: full simulation of the all-zero vector,
  /// per-gate context construction, and the all-fastest timing analyze.
  explicit LeafEvaluator(const AssignmentProblem& problem);

  const AssignmentProblem& problem() const { return *problem_; }

  /// Bit-identical to assign_gates_greedy(problem, sleep_vector, order).
  Solution evaluate_greedy(const std::vector<bool>& sleep_vector,
                           GateOrder order = GateOrder::kBySavings);

  /// Bit-identical to assign_gates_exact(problem, sleep_vector, max_nodes).
  Solution evaluate_exact(const std::vector<bool>& sleep_vector,
                          std::uint64_t max_nodes = 0);

  /// Bit-identical to evaluate_state_only(problem, sleep_vector).
  Solution evaluate_state_only(const std::vector<bool>& sleep_vector);

  /// Advances the internal simulation and per-gate contexts to
  /// `sleep_vector` (cone-local). Exposed for tests; the evaluate_*
  /// entry points call it themselves.
  void sync(const std::vector<bool>& sleep_vector);

  /// Current per-gate contexts (valid for the last synced vector).
  const std::vector<GateContext>& contexts() const { return contexts_; }

 private:
  void refresh_gate(int gate);

  const AssignmentProblem* problem_;
  sim::IncrementalBoolSim sim_;
  std::vector<GateContext> contexts_;
  /// Per-gate fastest-variant leakage at the current raw state; summed in
  /// gate order per state-only leaf (the same association order as the
  /// from-scratch evaluation, hence bit-identical totals).
  std::vector<double> state_terms_;
  sim::CircuitConfig config_;          ///< All-fastest + contexts' mappings.
  sim::CircuitConfig fastest_config_;  ///< Identity mappings (state-only).
  sta::TimingState timing_;
  sta::TimingSnapshot baseline_;
  /// sta::downstream_delay_lower_bounds_ps of the problem; passed to the
  /// gate-tree searches for early rejection of infeasible trials.
  std::vector<double> down_lb_;
  std::vector<int> changed_;  ///< Scratch for set_input reporting.
};

}  // namespace svtox::opt
