#include "opt/gate_assign.hpp"

#include <algorithm>
#include <numeric>

#include "sim/sim.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace svtox::opt {

namespace {

constexpr double kDelaySlackEps = 1e-6;

std::vector<int> gate_visit_order(const AssignmentProblem& problem,
                                  const std::vector<GateContext>& contexts,
                                  GateOrder order) {
  const netlist::Netlist& netlist = problem.netlist();
  std::vector<int> gates(static_cast<std::size_t>(netlist.num_gates()));
  std::iota(gates.begin(), gates.end(), 0);
  switch (order) {
    case GateOrder::kTopological:
      return netlist.topological_order();
    case GateOrder::kReverseTopological: {
      std::vector<int> rev = netlist.topological_order();
      std::reverse(rev.begin(), rev.end());
      return rev;
    }
    case GateOrder::kBySavings: {
      std::vector<double> savings(gates.size());
      for (int g = 0; g < netlist.num_gates(); ++g) {
        const GateContext& ctx = contexts[static_cast<std::size_t>(g)];
        savings[static_cast<std::size_t>(g)] =
            problem.fastest_gate_leak_na(g, ctx.raw_state) -
            problem.min_gate_leak_na(g, ctx.raw_state);
      }
      std::stable_sort(gates.begin(), gates.end(), [&](int a, int b) {
        return savings[static_cast<std::size_t>(a)] > savings[static_cast<std::size_t>(b)];
      });
      return gates;
    }
  }
  return gates;
}

double config_leakage_na(const netlist::Netlist& netlist,
                         const std::vector<GateContext>& contexts,
                         const sim::CircuitConfig& config) {
  double total = 0.0;
  for (int g = 0; g < netlist.num_gates(); ++g) {
    total += netlist.cell_of(g).leakage_na(
        config[static_cast<std::size_t>(g)].variant,
        contexts[static_cast<std::size_t>(g)].canonical_state);
  }
  return total;
}

/// Restores `config` to the all-fastest starting point (mappings kept) so
/// reusable buffers are ready for the next leaf.
void reset_to_fastest(const netlist::Netlist& netlist, sim::CircuitConfig& config) {
  for (int g = 0; g < netlist.num_gates(); ++g) {
    config[static_cast<std::size_t>(g)].variant = netlist.cell_of(g).fastest_variant();
  }
}

}  // namespace

std::vector<GateContext> build_contexts(const AssignmentProblem& problem,
                                        const std::vector<bool>& sleep_vector) {
  const netlist::Netlist& netlist = problem.netlist();
  const std::vector<bool> values = sim::simulate(netlist, sleep_vector);
  std::vector<GateContext> contexts(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) {
    GateContext& ctx = contexts[static_cast<std::size_t>(g)];
    ctx.raw_state = sim::local_state(netlist, values, g);
    if (problem.use_pin_reorder()) {
      ctx.mapping = problem.pin_mapping(g, ctx.raw_state);
      ctx.canonical_state = ctx.mapping.canonical_state;
    } else {
      // Ablation: keep wiring; menus and leakage use the raw state.
      ctx.canonical_state = ctx.raw_state;
    }
  }
  return contexts;
}

sim::CircuitConfig initial_config(const netlist::Netlist& netlist,
                                  const std::vector<GateContext>& contexts) {
  sim::CircuitConfig config(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) {
    config[static_cast<std::size_t>(g)].variant = netlist.cell_of(g).fastest_variant();
    // Pin reordering is applied from the start; it is timing- and
    // leakage-neutral for the fastest version (symmetric pins) and makes
    // every later swap see its canonical state.
    config[static_cast<std::size_t>(g)].mapping = contexts[static_cast<std::size_t>(g)].mapping;
  }
  return config;
}

Solution assign_gates_greedy(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector, GateOrder order,
                             const std::vector<GateContext>& contexts,
                             sim::CircuitConfig& config, sta::TimingState& timing,
                             const sta::TimingSnapshot& baseline,
                             const std::vector<double>* downstream_lb_ps) {
  Timer timer;
  const netlist::Netlist& netlist = problem.netlist();
  const double ceiling = problem.constraint_ps() + kDelaySlackEps;
  timing.restore(baseline);
  double delay = timing.circuit_delay_ps();

  sta::TimingUndo undo;  // hoisted: one allocation serves every trial
  for (int g : gate_visit_order(problem, contexts, order)) {
    const GateContext& ctx = contexts[static_cast<std::size_t>(g)];
    const VariantMenu& menu = problem.menu(g, ctx.canonical_state);
    const int fastest = netlist.cell_of(g).fastest_variant();
    // Ascending leakage: the first delay-feasible variant wins.
    for (int v : menu.by_leakage) {
      if (v == fastest) break;  // current selection; nothing left to gain
      config[static_cast<std::size_t>(g)].variant = v;
      undo.entries.clear();
      const double new_delay =
          downstream_lb_ps == nullptr
              ? timing.update_after_gate_change(config, g, &undo)
              : timing.update_after_gate_change_bounded(config, g, *downstream_lb_ps,
                                                        ceiling, &undo);
      if (new_delay <= ceiling) {
        delay = new_delay;
        break;
      }
      timing.revert(undo);
      config[static_cast<std::size_t>(g)].variant = fastest;
    }
  }

  Solution solution;
  solution.sleep_vector = sleep_vector;
  solution.config = config;
  solution.leakage_na = config_leakage_na(netlist, contexts, solution.config);
  solution.delay_ps = delay;
  solution.states_explored = 1;
  solution.runtime_s = timer.seconds();
  reset_to_fastest(netlist, config);
  return solution;
}

Solution assign_gates_greedy(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector, GateOrder order) {
  Timer timer;
  const std::vector<GateContext> contexts = build_contexts(problem, sleep_vector);
  sim::CircuitConfig config = initial_config(problem.netlist(), contexts);
  sta::TimingState timing(problem.netlist());
  timing.set_boundary(problem.boundary());
  timing.analyze(config);
  timing.use_load_slices(&problem.load_slices());
  sta::TimingSnapshot baseline;
  timing.snapshot(baseline);
  Solution solution =
      assign_gates_greedy(problem, sleep_vector, order, contexts, config, timing, baseline);
  solution.runtime_s = timer.seconds();
  return solution;
}

namespace {

/// Depth-first exact search state.
struct ExactSearch {
  const AssignmentProblem* problem;
  const netlist::Netlist* netlist;
  const std::vector<GateContext>* contexts;
  const std::vector<int>* order;
  std::vector<double> suffix_min;  ///< Optimistic leakage of gates order[i..).
  sim::CircuitConfig* config;
  sta::TimingState* timing;
  const std::vector<double>* down_lb = nullptr;  ///< Optional abort bounds.
  double partial_leak = 0.0;
  Solution best;
  std::uint64_t nodes = 0;
  std::uint64_t max_nodes = 0;
  bool aborted = false;

  void dfs(std::size_t depth) {
    if (aborted) return;
    if (max_nodes != 0 && ++nodes > max_nodes) {
      aborted = true;
      return;
    }
    if (depth == order->size()) {
      if (partial_leak < best.leakage_na) {
        best.config = *config;
        best.leakage_na = partial_leak;
        best.delay_ps = timing->circuit_delay_ps();
      }
      return;
    }
    const int g = (*order)[depth];
    const GateContext& ctx = (*contexts)[static_cast<std::size_t>(g)];
    const VariantMenu& menu = problem->menu(g, ctx.canonical_state);
    const int fastest = netlist->cell_of(g).fastest_variant();

    for (int v : menu.by_leakage) {
      const double leak = netlist->cell_of(g).leakage_na(v, ctx.canonical_state);
      // Edges are sorted ascending: once the optimistic completion cannot
      // beat the incumbent, no later edge can either.
      if (partial_leak + leak + suffix_min[depth + 1] >= best.leakage_na - 1e-12) break;

      (*config)[static_cast<std::size_t>(g)].variant = v;
      sta::TimingUndo undo;
      const double ceiling = problem->constraint_ps() + kDelaySlackEps;
      const double d =
          down_lb == nullptr
              ? timing->update_after_gate_change(*config, g, &undo)
              : timing->update_after_gate_change_bounded(*config, g, *down_lb,
                                                         ceiling, &undo);
      // Remaining gates sit at their fastest versions, so `d` is the
      // minimum delay of any completion: infeasible => prune this edge (but
      // a later, leakier edge can be faster -- keep scanning).
      if (d <= ceiling) {
        partial_leak += leak;
        dfs(depth + 1);
        partial_leak -= leak;
      }
      timing->revert(undo);
      (*config)[static_cast<std::size_t>(g)].variant = fastest;
      if (aborted) return;
    }
  }
};

}  // namespace

Solution assign_gates_exact(const AssignmentProblem& problem,
                            const std::vector<bool>& sleep_vector,
                            std::uint64_t max_nodes,
                            const std::vector<GateContext>& contexts,
                            sim::CircuitConfig& config, sta::TimingState& timing,
                            const sta::TimingSnapshot& baseline,
                            const std::vector<double>* downstream_lb_ps) {
  Timer timer;
  const netlist::Netlist& netlist = problem.netlist();

  ExactSearch search;
  search.problem = &problem;
  search.netlist = &netlist;
  search.contexts = &contexts;
  const std::vector<int> order = gate_visit_order(problem, contexts, GateOrder::kBySavings);
  search.order = &order;
  search.max_nodes = max_nodes;

  // Optimistic suffix sums for pruning.
  search.suffix_min.assign(order.size() + 1, 0.0);
  for (std::size_t i = order.size(); i-- > 0;) {
    const int g = order[i];
    search.suffix_min[i] =
        search.suffix_min[i + 1] +
        problem.min_gate_leak_na(g, contexts[static_cast<std::size_t>(g)].raw_state);
  }

  // Incumbent: the greedy solution (this is also the paper's observation
  // that the first sorted descent establishes a good lower bound). The
  // greedy leaves `config` reset to all-fastest with the contexts'
  // mappings, which is exactly the DFS's starting configuration.
  search.best =
      assign_gates_greedy(problem, sleep_vector, GateOrder::kBySavings, contexts,
                          config, timing, baseline, downstream_lb_ps);

  search.config = &config;
  search.down_lb = downstream_lb_ps;
  timing.restore(baseline);
  search.timing = &timing;
  search.dfs(0);

  search.best.sleep_vector = sleep_vector;
  search.best.leakage_na = config_leakage_na(netlist, contexts, search.best.config);
  search.best.states_explored = 1;
  search.best.nodes_visited = search.nodes;
  search.best.runtime_s = timer.seconds();
  return search.best;
}

Solution assign_gates_exact(const AssignmentProblem& problem,
                            const std::vector<bool>& sleep_vector,
                            std::uint64_t max_nodes) {
  Timer timer;
  const std::vector<GateContext> contexts = build_contexts(problem, sleep_vector);
  sim::CircuitConfig config = initial_config(problem.netlist(), contexts);
  sta::TimingState timing(problem.netlist());
  timing.set_boundary(problem.boundary());
  timing.analyze(config);
  timing.use_load_slices(&problem.load_slices());
  sta::TimingSnapshot baseline;
  timing.snapshot(baseline);
  Solution solution = assign_gates_exact(problem, sleep_vector, max_nodes, contexts,
                                         config, timing, baseline);
  solution.runtime_s = timer.seconds();
  return solution;
}

Solution evaluate_state_only(const AssignmentProblem& problem,
                             const std::vector<bool>& sleep_vector) {
  Timer timer;
  const netlist::Netlist& netlist = problem.netlist();
  const std::vector<bool> values = sim::simulate(netlist, sleep_vector);

  Solution solution;
  solution.sleep_vector = sleep_vector;
  solution.config = sim::fastest_config(netlist);
  double total = 0.0;
  for (int g = 0; g < netlist.num_gates(); ++g) {
    total += problem.fastest_gate_leak_na(g, sim::local_state(netlist, values, g));
  }
  solution.leakage_na = total;
  solution.delay_ps = problem.budget().fast_delay_ps;
  solution.states_explored = 1;
  solution.runtime_s = timer.seconds();
  return solution;
}

}  // namespace svtox::opt
