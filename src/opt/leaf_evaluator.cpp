#include "opt/leaf_evaluator.hpp"

#include "util/error.hpp"
#include "util/timer.hpp"

namespace svtox::opt {

LeafEvaluator::LeafEvaluator(const AssignmentProblem& problem)
    : problem_(&problem),
      sim_(problem.netlist()),
      timing_(problem.netlist()) {
  const netlist::Netlist& netlist = problem.netlist();
  contexts_.resize(static_cast<std::size_t>(netlist.num_gates()));
  state_terms_.resize(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) refresh_gate(g);
  config_ = initial_config(netlist, contexts_);
  fastest_config_ = sim::fastest_config(netlist);
  timing_.set_boundary(problem.boundary());
  // One analyze serves every leaf: the all-fastest arrival times do not
  // depend on the sleep vector, and pin tables within a symmetric group are
  // identical for the uniform-corner fastest version, so the mappings the
  // contexts carry cannot change them either.
  timing_.analyze(config_);
  timing_.snapshot(baseline_);
  // Shared, leaf-invariant accelerators: the problem's load-sliced tables
  // cut the per-lookup cost of incremental re-timing, and the downstream
  // bounds (read from the same slices, seeded with the problem's boundary
  // slews) let infeasible trials abort their propagation early. Both are
  // bit-neutral to the results.
  timing_.use_load_slices(&problem.load_slices());
  down_lb_ = sta::downstream_delay_lower_bounds_ps(netlist, problem.load_slices(),
                                                   problem.boundary());
}

void LeafEvaluator::refresh_gate(int gate) {
  GateContext& ctx = contexts_[static_cast<std::size_t>(gate)];
  ctx.raw_state = sim::local_state(problem_->netlist().flat(), sim_.values(),
                                   static_cast<std::uint32_t>(gate));
  if (problem_->use_pin_reorder()) {
    ctx.mapping = problem_->pin_mapping(gate, ctx.raw_state);
    ctx.canonical_state = ctx.mapping.canonical_state;
  } else {
    ctx.canonical_state = ctx.raw_state;
  }
  state_terms_[static_cast<std::size_t>(gate)] =
      problem_->fastest_gate_leak_na(gate, ctx.raw_state);
}

void LeafEvaluator::sync(const std::vector<bool>& sleep_vector) {
  if (sleep_vector.size() != sim_.input_values().size()) {
    throw ContractError("LeafEvaluator::sync: sleep vector size mismatch");
  }
  changed_.clear();
  for (std::size_t i = 0; i < sleep_vector.size(); ++i) {
    if (sim_.input_values()[i] != sleep_vector[i]) {
      sim_.set_input(static_cast<int>(i), sleep_vector[i], &changed_);
    }
  }
  // The evaluator only ever moves forward through the leaf stream, so the
  // undo frames opened above are dead weight.
  sim_.commit();
  for (int g : changed_) {
    refresh_gate(g);
    // A gate may appear once per set_input call; rewriting its mapping
    // twice is harmless.
    config_[static_cast<std::size_t>(g)].mapping =
        contexts_[static_cast<std::size_t>(g)].mapping;
  }
}

Solution LeafEvaluator::evaluate_greedy(const std::vector<bool>& sleep_vector,
                                        GateOrder order) {
  sync(sleep_vector);
  return assign_gates_greedy(*problem_, sleep_vector, order, contexts_, config_,
                             timing_, baseline_, &down_lb_);
}

Solution LeafEvaluator::evaluate_exact(const std::vector<bool>& sleep_vector,
                                       std::uint64_t max_nodes) {
  sync(sleep_vector);
  return assign_gates_exact(*problem_, sleep_vector, max_nodes, contexts_, config_,
                            timing_, baseline_, &down_lb_);
}

Solution LeafEvaluator::evaluate_state_only(const std::vector<bool>& sleep_vector) {
  Timer timer;
  sync(sleep_vector);
  Solution solution;
  solution.sleep_vector = sleep_vector;
  solution.config = fastest_config_;
  double total = 0.0;
  for (double term : state_terms_) total += term;
  solution.leakage_na = total;
  solution.delay_ps = problem_->budget().fast_delay_ps;
  solution.states_explored = 1;
  solution.runtime_s = timer.seconds();
  return solution;
}

}  // namespace svtox::opt
