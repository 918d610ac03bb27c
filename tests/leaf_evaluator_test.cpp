// Property tests for the amortized leaf-evaluation engine: the 2-valued
// incremental simulator must track the from-scratch simulator through
// arbitrary set/undo sequences, a LeafEvaluator's incremental contexts and
// solutions must be bit-identical to the from-scratch gate_assign entry
// points after any sync history, and the parallel probe sweep must return
// the same solution for any thread count.
#include <gtest/gtest.h>

#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/gate_assign.hpp"
#include "opt/leaf_evaluator.hpp"
#include "opt/state_search.hpp"
#include "sim/incremental.hpp"
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
  return netlist::random_circuit(lib(), "leaf_r", inputs, gates, seed);
}

std::vector<bool> random_vector(Rng& rng, int bits) {
  std::vector<bool> vector(static_cast<std::size_t>(bits));
  for (std::size_t i = 0; i < vector.size(); ++i) vector[i] = rng.next_bool();
  return vector;
}

void expect_config_eq(const sim::CircuitConfig& a, const sim::CircuitConfig& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].variant, b[g].variant) << "gate " << g;
    EXPECT_EQ(a[g].mapping.canonical_state, b[g].mapping.canonical_state)
        << "gate " << g;
    EXPECT_EQ(a[g].mapping.logical_to_physical, b[g].mapping.logical_to_physical)
        << "gate " << g;
  }
}

void expect_solution_eq(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.leakage_na, b.leakage_na);  // bitwise, not approximate
  EXPECT_EQ(a.delay_ps, b.delay_ps);
  EXPECT_EQ(a.sleep_vector, b.sleep_vector);
  EXPECT_EQ(a.states_explored, b.states_explored);
  expect_config_eq(a.config, b.config);
}

TEST(IncrementalBoolSim, MatchesFullResimulationUnderRandomSetUndo) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto n = random_net(seed, 8 + static_cast<int>(seed),
                              50 + 20 * static_cast<int>(seed));
    sim::IncrementalBoolSim inc(n);
    std::vector<bool> reference(static_cast<std::size_t>(n.num_control_points()),
                                false);
    std::vector<std::pair<int, bool>> stack;  // (index, previous) per frame

    Rng rng(seed * 131);
    for (int step = 0; step < 200; ++step) {
      const bool do_undo = !stack.empty() && rng.next_below(3) == 0;
      if (do_undo) {
        reference[static_cast<std::size_t>(stack.back().first)] = stack.back().second;
        stack.pop_back();
        inc.undo();
      } else {
        const int index = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(n.num_control_points())));
        const bool value = rng.next_bool();
        stack.emplace_back(index, reference[static_cast<std::size_t>(index)]);
        reference[static_cast<std::size_t>(index)] = value;
        inc.set_input(index, value);
      }
      ASSERT_EQ(inc.input_values(), reference) << "seed " << seed << " step " << step;
      ASSERT_EQ(inc.values(), sim::simulate(n, reference))
          << "seed " << seed << " step " << step;
    }
    // Full unwind returns to the all-zero start.
    while (!stack.empty()) {
      stack.pop_back();
      inc.undo();
    }
    EXPECT_EQ(inc.values(),
              sim::simulate(n, std::vector<bool>(
                                   static_cast<std::size_t>(n.num_control_points()),
                                   false)));
  }
}

TEST(IncrementalBoolSim, ReportsEveryGateWhoseLocalStateChanged) {
  const auto n = random_net(5, 12, 80);
  sim::IncrementalBoolSim inc(n);
  std::vector<bool> previous = inc.values();
  Rng rng(77);
  for (int step = 0; step < 60; ++step) {
    const int index = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n.num_control_points())));
    std::vector<int> changed;
    inc.set_input(index, rng.next_bool(), &changed);

    std::vector<bool> reported(static_cast<std::size_t>(n.num_gates()), false);
    for (int g : changed) {
      EXPECT_FALSE(reported[static_cast<std::size_t>(g)]) << "duplicate gate " << g;
      reported[static_cast<std::size_t>(g)] = true;
    }
    for (int g = 0; g < n.num_gates(); ++g) {
      if (sim::local_state(n, inc.values(), g) != sim::local_state(n, previous, g)) {
        EXPECT_TRUE(reported[static_cast<std::size_t>(g)])
            << "gate " << g << " changed but was not reported at step " << step;
      }
    }
    previous = inc.values();
  }
}

TEST(IncrementalBoolSim, CommitDropsFramesAndKeepsTheValuation) {
  const auto n = random_net(9, 10, 60);
  sim::IncrementalBoolSim inc(n);
  Rng rng(9);
  std::vector<bool> reference(static_cast<std::size_t>(n.num_control_points()), false);
  for (int step = 0; step < 20; ++step) {
    const int index = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n.num_control_points())));
    const bool value = rng.next_bool();
    reference[static_cast<std::size_t>(index)] = value;
    inc.set_input(index, value);
  }
  EXPECT_EQ(inc.frames(), 20);
  const std::vector<bool> values = inc.values();
  inc.commit();
  EXPECT_EQ(inc.frames(), 0);
  EXPECT_EQ(inc.values(), values);
  EXPECT_EQ(inc.input_values(), reference);
  EXPECT_THROW(inc.undo(), ContractError);
  // The engine keeps tracking the reference simulator after the commit.
  reference[0] = !reference[0];
  inc.set_input(0, reference[0]);
  EXPECT_EQ(inc.values(), sim::simulate(n, reference));
}

TEST(LeafEvaluator, ContextsMatchBuildContextsAfterRandomSyncs) {
  for (const bool pin_reorder : {true, false}) {
    const auto n = random_net(11, 12, 90);
    ProblemOptions popts;
    popts.use_pin_reorder = pin_reorder;
    const AssignmentProblem problem(n, 0.05, popts);
    LeafEvaluator evaluator(problem);
    Rng rng(1234);
    for (int step = 0; step < 40; ++step) {
      const std::vector<bool> vector = random_vector(rng, n.num_control_points());
      evaluator.sync(vector);
      const std::vector<GateContext> reference = build_contexts(problem, vector);
      ASSERT_EQ(evaluator.contexts().size(), reference.size());
      for (std::size_t g = 0; g < reference.size(); ++g) {
        const GateContext& got = evaluator.contexts()[g];
        const GateContext& want = reference[g];
        ASSERT_EQ(got.raw_state, want.raw_state)
            << "gate " << g << " step " << step << " reorder " << pin_reorder;
        ASSERT_EQ(got.canonical_state, want.canonical_state)
            << "gate " << g << " step " << step << " reorder " << pin_reorder;
        ASSERT_EQ(got.mapping.canonical_state, want.mapping.canonical_state);
        ASSERT_EQ(got.mapping.logical_to_physical, want.mapping.logical_to_physical);
      }
    }
  }
}

TEST(LeafEvaluator, GreedyIsBitIdenticalToFromScratch) {
  for (const bool pin_reorder : {true, false}) {
    for (std::uint64_t seed : {21ULL, 22ULL}) {
      const auto n = random_net(seed, 10, 70 + 10 * static_cast<int>(seed));
      ProblemOptions popts;
      popts.use_pin_reorder = pin_reorder;
      const AssignmentProblem problem(n, 0.05, popts);
      LeafEvaluator evaluator(problem);
      Rng rng(seed);
      for (const GateOrder order : {GateOrder::kBySavings, GateOrder::kTopological,
                                    GateOrder::kReverseTopological}) {
        for (int step = 0; step < 8; ++step) {
          const std::vector<bool> vector = random_vector(rng, n.num_control_points());
          const Solution amortized = evaluator.evaluate_greedy(vector, order);
          const Solution scratch = assign_gates_greedy(problem, vector, order);
          expect_solution_eq(amortized, scratch);
        }
      }
    }
  }
}

TEST(LeafEvaluator, ExactIsBitIdenticalToFromScratch) {
  const auto n = random_net(31, 6, 16);
  const AssignmentProblem problem(n, 0.10);
  LeafEvaluator evaluator(problem);
  Rng rng(31);
  for (int step = 0; step < 10; ++step) {
    const std::vector<bool> vector = random_vector(rng, n.num_control_points());
    const Solution amortized = evaluator.evaluate_exact(vector);
    const Solution scratch = assign_gates_exact(problem, vector);
    expect_solution_eq(amortized, scratch);
    EXPECT_EQ(amortized.nodes_visited, scratch.nodes_visited);
  }
}

TEST(LeafEvaluator, StateOnlyIsBitIdenticalToFromScratch) {
  const auto n = random_net(41, 14, 120);
  const AssignmentProblem problem(n, 0.05);
  LeafEvaluator evaluator(problem);
  Rng rng(41);
  for (int step = 0; step < 40; ++step) {
    const std::vector<bool> vector = random_vector(rng, n.num_control_points());
    const Solution amortized = evaluator.evaluate_state_only(vector);
    const Solution scratch = evaluate_state_only(problem, vector);
    expect_solution_eq(amortized, scratch);
  }
}

TEST(LeafEvaluator, BoundarySeededGreedyIsBitIdenticalToFromScratch) {
  // Hier cone problems carry measured boundary arrivals and slews, some
  // sharper than the library's primary-input default. The evaluator's
  // abort bounds must be seeded the same way, or a feasible trial can be
  // rejected early and the amortized greedy diverges from the
  // from-scratch one (which runs without bounds).
  for (std::uint64_t seed : {61ULL, 62ULL, 63ULL}) {
    const auto n = random_net(seed, 10, 80);
    Rng rng(seed);
    ProblemOptions popts;
    for (int i = 0; i < n.num_control_points(); ++i) {
      const double slew = rng.next_below(3) == 0 ? 0.0 : 0.1 + 4.9 * rng.next_double();
      popts.boundary.points.push_back({30.0 * rng.next_double(), slew});
    }
    for (const double penalty : {0.0, 0.02, 0.05}) {
      const AssignmentProblem problem(n, penalty, popts);
      LeafEvaluator evaluator(problem);
      for (int step = 0; step < 6; ++step) {
        const std::vector<bool> vector = random_vector(rng, n.num_control_points());
        expect_solution_eq(evaluator.evaluate_greedy(vector),
                           assign_gates_greedy(problem, vector));
      }
    }
  }
}

TEST(LeafEvaluator, BundledCircuitsAreBitIdentical) {
  // Every bundled combinational benchmark, a couple of leaves each: the
  // amortized greedy and state-only evaluations must match the
  // from-scratch entry points bitwise.
  for (const auto& spec : netlist::benchmark_suite()) {
    if (spec.name == "alu64") continue;  // largest; covered by c6288/c7552
    const netlist::Netlist n = netlist::make_benchmark(spec.name, lib());
    const AssignmentProblem problem(n, 0.05);
    LeafEvaluator evaluator(problem);
    Rng rng(7);
    for (int step = 0; step < 2; ++step) {
      const std::vector<bool> vector = random_vector(rng, n.num_control_points());
      expect_solution_eq(evaluator.evaluate_greedy(vector),
                         assign_gates_greedy(problem, vector));
      expect_solution_eq(evaluator.evaluate_state_only(vector),
                         evaluate_state_only(problem, vector));
    }
  }
}

TEST(ParallelSearch, ProbeSweepIsThreadCountInvariant) {
  const auto n = random_net(51, 12, 80);
  const AssignmentProblem problem(n, 0.05);
  SearchOptions options;
  options.time_limit_s = 60.0;  // generous: every probe completes
  options.max_leaves = 1;       // isolate the probe sweep from the DFS
  options.random_probes = 64;

  options.threads = 1;
  const Solution serial = state_only_search(problem, options);
  ASSERT_EQ(serial.states_explored,
            1u + static_cast<std::uint64_t>(options.random_probes));
  for (int threads : {2, 4}) {
    options.threads = threads;
    const Solution parallel = state_only_search(problem, options);
    expect_solution_eq(parallel, serial);
  }

  // The greedy-leaf (Heu2-style) sweep is thread-count invariant too.
  // Small enough that the 60s limit makes the tree search exhaustive, so
  // the combined tree + probe result is fully deterministic.
  const auto n2 = random_net(52, 9, 50);
  const AssignmentProblem problem2(n2, 0.05);
  options.max_leaves = 0;
  options.threads = 1;
  const Solution greedy_serial = heuristic2(problem2, options);
  for (int threads : {2, 4}) {
    options.threads = threads;
    const Solution greedy_parallel = heuristic2(problem2, options);
    EXPECT_EQ(greedy_parallel.leakage_na, greedy_serial.leakage_na);
    EXPECT_EQ(greedy_parallel.sleep_vector, greedy_serial.sleep_vector);
    EXPECT_EQ(greedy_parallel.delay_ps, greedy_serial.delay_ps);
    expect_config_eq(greedy_parallel.config, greedy_serial.config);
  }
}

}  // namespace
}  // namespace svtox::opt
