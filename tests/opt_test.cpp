#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/state_search.hpp"
#include "sim/leakage_eval.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svtox::opt {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

netlist::Netlist random_net(std::uint64_t seed, int inputs = 10, int gates = 60) {
  return netlist::random_circuit(lib(), "opt_r", inputs, gates, seed);
}

std::vector<bool> random_vector(const netlist::Netlist& n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> v(static_cast<std::size_t>(n.num_inputs()));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
  return v;
}

TEST(Problem, ConstraintInterpolatesBudget) {
  const auto n = random_net(1);
  const AssignmentProblem p5(n, 0.05);
  const AssignmentProblem p25(n, 0.25);
  EXPECT_GT(p25.constraint_ps(), p5.constraint_ps());
  EXPECT_GE(p5.constraint_ps(), p5.budget().fast_delay_ps);
  EXPECT_THROW(AssignmentProblem(n, 1.5), ContractError);
}

TEST(Problem, MenusAreSortedAscendingByLeakage) {
  const auto n = random_net(2);
  const AssignmentProblem problem(n, 0.05);
  for (int g = 0; g < n.num_gates(); ++g) {
    const auto& cell = n.cell_of(g);
    for (std::uint32_t raw = 0; raw < cell.topology().num_states(); ++raw) {
      const auto canon = cell.canonicalize(raw).canonical_state;
      const VariantMenu& menu = problem.menu(g, canon);
      ASSERT_FALSE(menu.by_leakage.empty());
      for (std::size_t i = 1; i < menu.by_leakage.size(); ++i) {
        EXPECT_LE(cell.leakage_na(menu.by_leakage[i - 1], canon),
                  cell.leakage_na(menu.by_leakage[i], canon) + 1e-12);
      }
    }
  }
}

TEST(Problem, MinLeakBoundIsConsistent) {
  const auto n = random_net(3);
  const AssignmentProblem problem(n, 0.05);
  for (int g = 0; g < n.num_gates(); ++g) {
    const auto& cell = n.cell_of(g);
    for (std::uint32_t raw = 0; raw < cell.topology().num_states(); ++raw) {
      EXPECT_LE(problem.min_gate_leak_na(g, raw),
                problem.fastest_gate_leak_na(g, raw) + 1e-12);
    }
  }
}

TEST(Problem, InputOrderIsAPermutation) {
  const auto n = random_net(4, 14, 70);
  const AssignmentProblem problem(n, 0.05);
  std::vector<bool> seen(static_cast<std::size_t>(n.num_inputs()), false);
  for (int i : problem.input_order()) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n.num_inputs());
    EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(i)] = true;
  }
}

/// Oracle for transitive_fanout_gate_counts: one DFS per control point
/// over Netlist::sinks(), with its own visited marks.
std::vector<int> dfs_fanout_counts(const netlist::Netlist& n) {
  std::vector<int> counts;
  for (int cp : n.control_points()) {
    std::vector<bool> reached(static_cast<std::size_t>(n.num_gates()), false);
    std::vector<int> stack;
    int count = 0;
    auto push_sinks = [&](int signal) {
      for (const netlist::Sink& sink : n.sinks(signal)) {
        if (!reached[static_cast<std::size_t>(sink.gate)]) {
          reached[static_cast<std::size_t>(sink.gate)] = true;
          stack.push_back(sink.gate);
        }
      }
    };
    push_sinks(cp);
    while (!stack.empty()) {
      const int g = stack.back();
      stack.pop_back();
      ++count;
      push_sinks(n.gate(g).output);
    }
    counts.push_back(count);
  }
  return counts;
}

void expect_input_order_matches_dfs(const netlist::Netlist& n) {
  const std::vector<int> expected = dfs_fanout_counts(n);
  ASSERT_EQ(transitive_fanout_gate_counts(n.flat()), expected) << n.name();
  std::vector<int> order(expected.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return expected[static_cast<std::size_t>(a)] > expected[static_cast<std::size_t>(b)];
  });
  EXPECT_EQ(AssignmentProblem(n, 0.05).input_order(), order) << n.name();
}

TEST(Problem, InputOrderMatchesDfsOracleOnSuite) {
  for (const netlist::BenchmarkSpec& spec : netlist::benchmark_suite()) {
    expect_input_order_matches_dfs(netlist::make_benchmark(spec.name, lib()));
  }
}

TEST(Problem, InputOrderMatchesDfsOracleOnLargeDag) {
  // 256 control points: four 64-point words, the size of the global
  // problem the hierarchical flow builds on a 32k-gate circuit.
  netlist::DagOptions options;
  options.num_inputs = 256;
  options.num_gates = 32768;
  options.target_depth = 40;
  options.seed = 15;
  expect_input_order_matches_dfs(netlist::random_dag(lib(), "dag32k", options));
}

TEST(Problem, InputOrderMatchesDfsOracleWithFlipFlops) {
  // Control points past the primary inputs (flip-flop outputs), and a
  // count that is not a multiple of 64.
  expect_input_order_matches_dfs(
      netlist::sequential_pipeline(lib(), "pipe", 24, 4, 120, 17));
}

TEST(GreedyAssign, RespectsDelayConstraint) {
  for (double penalty : {0.0, 0.05, 0.10, 0.25}) {
    const auto n = random_net(5, 12, 100);
    const AssignmentProblem problem(n, penalty);
    const Solution sol = assign_gates_greedy(problem, random_vector(n, 55));
    EXPECT_LE(sol.delay_ps, problem.constraint_ps() + 1e-3) << "penalty " << penalty;
  }
}

TEST(GreedyAssign, NeverWorseThanFastestConfig) {
  const auto n = random_net(6, 12, 100);
  const AssignmentProblem problem(n, 0.05);
  const auto vec = random_vector(n, 66);
  const Solution greedy = assign_gates_greedy(problem, vec);
  const Solution fastest = evaluate_state_only(problem, vec);
  EXPECT_LE(greedy.leakage_na, fastest.leakage_na + 1e-9);
}

TEST(GreedyAssign, MorePenaltyNeverHurts) {
  const auto n = random_net(7, 12, 120);
  const auto vec = random_vector(n, 77);
  double prev = 1e300;
  for (double penalty : {0.0, 0.05, 0.10, 0.25, 1.0}) {
    const AssignmentProblem problem(n, penalty);
    const Solution sol = assign_gates_greedy(problem, vec);
    EXPECT_LE(sol.leakage_na, prev + 1e-9) << "penalty " << penalty;
    prev = sol.leakage_na;
  }
}

TEST(GreedyAssign, FullBudgetReachesPerGateMinimum) {
  // With a 100% penalty every gate can take its min-leak version: the
  // greedy result must equal the sum of per-gate minima.
  const auto n = random_net(8, 10, 80);
  const AssignmentProblem problem(n, 1.0);
  const auto vec = random_vector(n, 88);
  const Solution sol = assign_gates_greedy(problem, vec);

  const auto values = sim::simulate(n, vec);
  double floor = 0.0;
  for (int g = 0; g < n.num_gates(); ++g) {
    floor += problem.min_gate_leak_na(g, sim::local_state(n, values, g));
  }
  EXPECT_NEAR(sol.leakage_na, floor, 1e-6);
}

TEST(GreedyAssign, GateOrdersAllFeasible) {
  const auto n = random_net(9, 12, 100);
  const AssignmentProblem problem(n, 0.05);
  const auto vec = random_vector(n, 99);
  for (GateOrder order :
       {GateOrder::kBySavings, GateOrder::kTopological, GateOrder::kReverseTopological}) {
    const Solution sol = assign_gates_greedy(problem, vec, order);
    EXPECT_LE(sol.delay_ps, problem.constraint_ps() + 1e-3);
    EXPECT_GT(sol.leakage_na, 0.0);
  }
}

TEST(ExactGateAssign, NeverWorseThanGreedy) {
  for (std::uint64_t seed : {10ULL, 11ULL, 12ULL}) {
    const auto n = random_net(seed, 6, 14);
    const AssignmentProblem problem(n, 0.05);
    const auto vec = random_vector(n, seed * 3);
    const Solution greedy = assign_gates_greedy(problem, vec);
    const Solution exact = assign_gates_exact(problem, vec);
    EXPECT_LE(exact.leakage_na, greedy.leakage_na + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.delay_ps, problem.constraint_ps() + 1e-3);
  }
}

TEST(Bound, AdmissibleAgainstSampledCompletions) {
  // Property: the ternary lower bound never exceeds the true leakage of any
  // completion's greedy solution.
  const auto n = random_net(13, 8, 50);
  const AssignmentProblem problem(n, 0.25);
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<sim::Tri> partial(static_cast<std::size_t>(n.num_inputs()), sim::Tri::kX);
    for (std::size_t i = 0; i < partial.size() / 2; ++i) {
      partial[i] = rng.next_bool() ? sim::Tri::kOne : sim::Tri::kZero;
    }
    const double bound = leakage_lower_bound_na(problem, partial, BoundKind::kMinVariant);

    for (int completion = 0; completion < 8; ++completion) {
      std::vector<bool> vec(partial.size());
      for (std::size_t i = 0; i < partial.size(); ++i) {
        vec[i] = partial[i] == sim::Tri::kOne ||
                 (partial[i] == sim::Tri::kX && rng.next_bool());
      }
      const Solution sol = assign_gates_greedy(problem, vec);
      EXPECT_LE(bound, sol.leakage_na + 1e-6);
    }
  }
}

TEST(Bound, TightensAsInputsAreAssigned) {
  const auto n = random_net(14, 10, 60);
  const AssignmentProblem problem(n, 0.05);
  std::vector<sim::Tri> partial(static_cast<std::size_t>(n.num_inputs()), sim::Tri::kX);
  double prev = leakage_lower_bound_na(problem, partial, BoundKind::kMinVariant);
  Rng rng(14);
  for (std::size_t i = 0; i < partial.size(); ++i) {
    partial[i] = rng.next_bool() ? sim::Tri::kOne : sim::Tri::kZero;
    const double bound = leakage_lower_bound_na(problem, partial, BoundKind::kMinVariant);
    EXPECT_GE(bound, prev - 1e-9);
    prev = bound;
  }
}

TEST(Heuristics, Heu2NeverWorseThanHeu1) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    const auto n = random_net(seed, 10, 80);
    const AssignmentProblem problem(n, 0.05);
    const Solution h1 = heuristic1(problem);
    const Solution h2 = heuristic2(problem, 0.5);
    EXPECT_LE(h2.leakage_na, h1.leakage_na + 1e-9) << "seed " << seed;
    EXPECT_GE(h2.states_explored, h1.states_explored);
  }
}

TEST(Heuristics, Heu1ExploresExactlyOneLeaf) {
  const auto n = random_net(24, 10, 60);
  const AssignmentProblem problem(n, 0.05);
  const Solution h1 = heuristic1(problem);
  EXPECT_EQ(h1.states_explored, 1u);
  EXPECT_EQ(h1.sleep_vector.size(), static_cast<std::size_t>(n.num_inputs()));
}

TEST(Heuristics, SolutionsRespectDelayConstraint) {
  const auto n = random_net(25, 12, 100);
  for (double penalty : {0.05, 0.25}) {
    const AssignmentProblem problem(n, penalty);
    for (const Solution& sol : {heuristic1(problem), heuristic2(problem, 0.3)}) {
      EXPECT_LE(sol.delay_ps, problem.constraint_ps() + 1e-3);
    }
  }
}

TEST(Heuristics, ExactNeverWorseThanHeuristics) {
  // Small circuit so the exact search finishes: full state + gate B&B.
  const auto n = random_net(26, 5, 12);
  const AssignmentProblem problem(n, 0.10);
  SearchOptions options;
  options.time_limit_s = 30.0;
  const Solution exact = exact_search(problem, options);
  const Solution h1 = heuristic1(problem);
  const Solution h2 = heuristic2(problem, 1.0);
  EXPECT_LE(exact.leakage_na, h1.leakage_na + 1e-9);
  EXPECT_LE(exact.leakage_na, h2.leakage_na + 1e-9);
  EXPECT_LE(exact.delay_ps, problem.constraint_ps() + 1e-3);
}

TEST(StateOnly, NoGateIsSwapped) {
  const auto n = random_net(27, 10, 60);
  const AssignmentProblem problem(n, 0.05);
  const Solution sol = state_only_search(problem, 0.3);
  for (int g = 0; g < n.num_gates(); ++g) {
    EXPECT_EQ(sol.config[static_cast<std::size_t>(g)].variant,
              n.cell_of(g).fastest_variant());
  }
}

TEST(StateOnly, WorseThanProposedButBetterThanWorstState) {
  const auto n = random_net(28, 10, 80);
  const AssignmentProblem problem(n, 0.05);
  const Solution state_only = state_only_search(problem, 0.3);
  const Solution h1 = heuristic1(problem);
  EXPECT_GE(state_only.leakage_na, h1.leakage_na - 1e-9);
  // And the chosen state beats the worst state by some margin.
  double worst = 0.0;
  Rng rng(28);
  for (int trial = 0; trial < 50; ++trial) {
    const Solution probe = evaluate_state_only(problem, random_vector(n, rng.next_u64()));
    worst = std::max(worst, probe.leakage_na);
  }
  EXPECT_LT(state_only.leakage_na, worst);
}

TEST(VtOnlyLibrary, ProposedBeatsVtState) {
  // The paper's central comparison: dual-Vt alone cannot touch Igate, so
  // the dual-Tox flow must win at the same circuit and penalty.
  const auto n = random_net(29, 10, 80);
  liberty::LibraryOptions options;
  options.variant_options.vt_only = true;
  const liberty::Library vt_lib =
      liberty::Library::build(model::TechParams::nominal(), options);
  const auto vt_net = netlist::rebind(n, vt_lib);

  const AssignmentProblem full_problem(n, 0.05);
  const AssignmentProblem vt_problem(vt_net, 0.05);
  const Solution full = heuristic1(full_problem);
  const Solution vt = heuristic1(vt_problem);
  EXPECT_LT(full.leakage_na, vt.leakage_na);
}

}  // namespace
}  // namespace svtox::opt

namespace svtox::opt {
namespace {

TEST(Accounting, SolutionLeakageMatchesIndependentSimulation) {
  // The optimizer's internal leakage bookkeeping (canonical-state lookups
  // during the greedy) must agree with a from-scratch evaluation of the
  // final configuration through the simulator -- the same cross-check the
  // CLI `verify` command performs.
  for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const auto n = random_net(seed, 12, 90);
    for (double penalty : {0.0, 0.05, 0.25}) {
      const AssignmentProblem problem(n, penalty);
      const Solution sol = heuristic1(problem);
      const double independent =
          sim::circuit_leakage_na(n, sol.config, sol.sleep_vector);
      EXPECT_NEAR(independent, sol.leakage_na, 1e-6)
          << "seed " << seed << " penalty " << penalty;
    }
  }
}

TEST(Accounting, SolutionDelayMatchesIndependentSta) {
  const auto n = random_net(34, 12, 90);
  const AssignmentProblem problem(n, 0.10);
  const Solution sol = heuristic1(problem);
  sta::TimingState timing(n);
  EXPECT_NEAR(timing.analyze(sol.config), sol.delay_ps, 1e-6);
}

}  // namespace
}  // namespace svtox::opt
