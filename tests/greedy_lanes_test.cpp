// Lane oracle for the greedy gate descent. With threads > 1,
// opt::assign_gates_greedy splits the descent into gate lanes (weakly
// connected components joined only through gate->driver edges) that run
// concurrently over one shared timing state. These tests pin the lane
// census and check every multi-lane run against an in-test copy of the
// serial one-state descent: the same variants, pin mappings, leakage bits
// and delay bits at any thread count. `ctest -L race` runs them under
// SVTOX_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "merged_blocks.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/gate_assign.hpp"
#include "opt/problem.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace svtox::opt {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

/// The serial descent on one TimingState, as it ran before lanes: gates
/// by descending potential savings (stable), each trying its menu in
/// ascending leakage and keeping the first variant whose circuit delay
/// meets the constraint.
Solution serial_greedy_oracle(const AssignmentProblem& problem,
                              const std::vector<bool>& sleep_vector) {
  const netlist::Netlist& n = problem.netlist();
  const std::vector<GateContext> contexts = build_contexts(problem, sleep_vector);
  sim::CircuitConfig config = initial_config(n, contexts);
  sta::TimingState timing(n);
  timing.set_boundary(problem.boundary());
  double delay = timing.analyze(config);
  timing.use_load_slices(&problem.load_slices());

  std::vector<int> gates(static_cast<std::size_t>(n.num_gates()));
  std::iota(gates.begin(), gates.end(), 0);
  std::vector<double> savings(gates.size());
  for (int g = 0; g < n.num_gates(); ++g) {
    const GateContext& ctx = contexts[static_cast<std::size_t>(g)];
    savings[static_cast<std::size_t>(g)] =
        problem.fastest_gate_leak_na(g, ctx.raw_state) -
        problem.min_gate_leak_na(g, ctx.raw_state);
  }
  std::stable_sort(gates.begin(), gates.end(), [&](int a, int b) {
    return savings[static_cast<std::size_t>(a)] > savings[static_cast<std::size_t>(b)];
  });

  const double ceiling = problem.constraint_ps() + 1e-6;
  sta::TimingUndo undo;
  for (int g : gates) {
    const GateContext& ctx = contexts[static_cast<std::size_t>(g)];
    const int fastest = n.cell_of(g).fastest_variant();
    for (int v : problem.menu(g, ctx.canonical_state).by_leakage) {
      if (v == fastest) break;
      config[static_cast<std::size_t>(g)].variant = v;
      undo.entries.clear();
      const double new_delay = timing.update_after_gate_change(config, g, &undo);
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
  for (int g = 0; g < n.num_gates(); ++g) {
    solution.leakage_na += n.cell_of(g).leakage_na(
        config[static_cast<std::size_t>(g)].variant,
        contexts[static_cast<std::size_t>(g)].canonical_state);
  }
  solution.delay_ps = delay;
  return solution;
}

void expect_same_descent(const Solution& got, const Solution& want) {
  EXPECT_EQ(got.leakage_na, want.leakage_na);  // bitwise, not approximate
  EXPECT_EQ(got.delay_ps, want.delay_ps);
  EXPECT_EQ(got.sleep_vector, want.sleep_vector);
  ASSERT_EQ(got.config.size(), want.config.size());
  for (std::size_t g = 0; g < got.config.size(); ++g) {
    EXPECT_EQ(got.config[g].variant, want.config[g].variant) << "gate " << g;
    EXPECT_EQ(got.config[g].mapping.logical_to_physical,
              want.config[g].mapping.logical_to_physical)
        << "gate " << g;
  }
}

/// The netlists the oracle runs on, all with several lanes: merged
/// random-DAG blocks, the c499 and c2670 stand-ins, and a pipeline whose
/// flip-flops add pseudo control and observe points.
std::vector<netlist::Netlist> lane_netlists() {
  std::vector<netlist::Netlist> nets;
  nets.push_back(merged_blocks(lib(), {8, 12, 16, 20}, 400, 7));
  nets.push_back(netlist::make_benchmark("c499", lib()));
  nets.push_back(netlist::make_benchmark("c2670", lib()));
  nets.push_back(netlist::sequential_pipeline(lib(), "pipe", 12, 3, 60, 5));
  return nets;
}

TEST(GreedyLanes, LanesAreTheDriverConnectedComponents) {
  for (const netlist::Netlist& n : lane_netlists()) {
    SCOPED_TRACE(n.name());
    const GateLanes lanes = gate_lanes(n);
    ASSERT_EQ(lanes.lane_of.size(), static_cast<std::size_t>(n.num_gates()));
    EXPECT_GT(lanes.count, 1);
    // Closed under gate->driver edges.
    for (int g = 0; g < n.num_gates(); ++g) {
      for (int f : n.gate(g).fanins) {
        const int d = n.driver(f);
        if (d >= 0) {
          EXPECT_EQ(lanes.lane_of[static_cast<std::size_t>(d)],
                    lanes.lane_of[static_cast<std::size_t>(g)]);
        }
      }
    }
    // Numbered by first appearance, so lane ids are dense and ordered.
    int seen = -1;
    for (int lane : lanes.lane_of) {
      EXPECT_LE(lane, seen + 1);
      seen = std::max(seen, lane);
    }
    EXPECT_EQ(seen + 1, lanes.count);
  }
  // And no coarser than the components: the lane census of three suite
  // circuits.
  EXPECT_EQ(gate_lanes(netlist::make_benchmark("c880", lib())).count, 11);
  EXPECT_EQ(gate_lanes(netlist::make_benchmark("c2670", lib())).count, 31);
  EXPECT_EQ(gate_lanes(netlist::make_benchmark("c499", lib())).count, 8);
}

TEST(GreedyLanes, BitIdenticalToSerialOracleAtAnyThreadCount) {
  for (const netlist::Netlist& n : lane_netlists()) {
    for (const double penalty : {0.0, 0.05}) {
      const AssignmentProblem problem(n, penalty);
      Rng rng(11);
      for (int rep = 0; rep < 2; ++rep) {
        std::vector<bool> sleep(static_cast<std::size_t>(n.num_control_points()));
        for (std::size_t i = 0; i < sleep.size(); ++i) sleep[i] = rng.next_bool();
        const Solution want = serial_greedy_oracle(problem, sleep);
        for (const int threads : {1, 2, 3, 4, 8}) {
          SCOPED_TRACE(n.name() + " penalty=" + std::to_string(penalty) + " rep=" +
                       std::to_string(rep) + " threads=" + std::to_string(threads));
          expect_same_descent(
              assign_gates_greedy(problem, sleep, GateOrder::kBySavings, threads), want);
        }
      }
    }
  }
}

TEST(GreedyLanes, EveryVisitOrderMatchesItsSerialRun) {
  // Each lane keeps its gates in the global visit order, whatever it is.
  const netlist::Netlist n = merged_blocks(lib(), {10, 14, 18}, 300, 3);
  const AssignmentProblem problem(n, 0.02);
  const std::vector<bool> sleep(static_cast<std::size_t>(n.num_control_points()), true);
  for (const GateOrder order :
       {GateOrder::kBySavings, GateOrder::kTopological, GateOrder::kReverseTopological}) {
    const Solution serial = assign_gates_greedy(problem, sleep, order, 1);
    for (const int threads : {2, 4}) {
      SCOPED_TRACE("order=" + std::to_string(static_cast<int>(order)) +
                   " threads=" + std::to_string(threads));
      expect_same_descent(assign_gates_greedy(problem, sleep, order, threads), serial);
    }
  }
}

}  // namespace
}  // namespace svtox::opt
