// Partitioner + hierarchical flow: coverage/ordering invariants, canonical
// cone text round trips, structural cone dedup, and an end-to-end
// optimize_hierarchical run whose stitched result must respect the global
// delay constraint (full-STA verified inside the flow, re-checked here).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/partition.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/sim.hpp"
#include "sta/sta.hpp"
#include "svc/hier.hpp"
#include "util/error.hpp"

namespace svtox {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

TEST(Partition, InvariantsHoldAcrossCircuitsAndBudgets) {
  for (const char* name : {"c432", "c880", "c6288"}) {
    const netlist::Netlist n = netlist::make_benchmark(name, lib());
    for (int max_gates : {50, 400, 100000}) {
      SCOPED_TRACE(std::string(name) + " max_gates=" + std::to_string(max_gates));
      opt::PartitionOptions options;
      options.max_gates = max_gates;
      const std::vector<opt::Partition> parts = opt::partition_netlist(n, options);
      ASSERT_FALSE(parts.empty());
      // check_partitions asserts exactly-once gate coverage, interface
      // consistency, and topological partition order.
      opt::check_partitions(n, parts);
      for (const opt::Partition& part : parts) {
        EXPECT_LE(static_cast<int>(part.gates.size()), max_gates);
        EXPECT_FALSE(part.outputs.empty());
      }
    }
  }
}

TEST(Partition, BudgetCoveringCircuitYieldsOnePartitionPerComponent) {
  // c6288's stand-in (array multiplier) is one weakly-connected component:
  // with the budget covering the whole circuit the partitioner must not
  // cut at all, and the single partition's boundary is exactly the
  // control-point set.
  const netlist::Netlist n = netlist::make_benchmark("c6288", lib());
  opt::PartitionOptions options;
  options.max_gates = n.num_gates();
  const std::vector<opt::Partition> parts = opt::partition_netlist(n, options);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(static_cast<int>(parts[0].gates.size()), n.num_gates());
  EXPECT_EQ(static_cast<int>(parts[0].boundary_inputs.size()), n.num_control_points());
}

TEST(Partition, CanonicalTextRoundTripsGateExact) {
  const netlist::Netlist n = netlist::make_benchmark("c6288", lib());
  opt::PartitionOptions options;
  options.max_gates = 300;
  const std::vector<opt::Partition> parts = opt::partition_netlist(n, options);
  ASSERT_GT(parts.size(), 1u);
  for (const opt::Partition& part : parts) {
    const std::string text = opt::canonical_bench_text(n, part);
    const netlist::Netlist cone =
        netlist::read_bench(text, "cone", n.library(), "cone");
    // Positional contract: cone gate k is global gate part.gates[k] with
    // the same cell and pin arity, cone PI j is boundary input j.
    ASSERT_EQ(cone.num_gates(), static_cast<int>(part.gates.size()));
    ASSERT_EQ(cone.num_control_points(), static_cast<int>(part.boundary_inputs.size()));
    for (std::size_t k = 0; k < part.gates.size(); ++k) {
      const netlist::Gate& global = n.gate(part.gates[k]);
      const netlist::Gate& local = cone.gate(static_cast<int>(k));
      ASSERT_EQ(cone.cell_of(static_cast<int>(k)).name(),
                n.cell_of(part.gates[k]).name());
      ASSERT_EQ(local.fanins.size(), global.fanins.size());
    }
  }
}

TEST(Partition, StructurallyIdenticalComponentsGiveIdenticalText) {
  // Two copies of the same sub-circuit, built side by side in one netlist:
  // disjoint components with identical structure must serialize to
  // byte-identical canonical text (that is what makes the solution cache
  // dedup them to a single solve).
  netlist::Netlist n("twin", &lib());
  const int nand2 = lib().cell_index("NAND2");
  for (int copy = 0; copy < 2; ++copy) {
    const std::string p = "u" + std::to_string(copy) + "_";
    const int a = n.add_signal(p + "a");
    const int b = n.add_signal(p + "b");
    const int c = n.add_signal(p + "c");
    const int x = n.add_signal(p + "x");
    const int y = n.add_signal(p + "y");
    n.mark_input(a);
    n.mark_input(b);
    n.mark_input(c);
    n.add_gate(p + "g0", nand2, {a, b}, x);
    n.add_gate(p + "g1", nand2, {x, c}, y);
    n.mark_output(y);
  }
  n.finalize();
  opt::PartitionOptions options;
  options.max_gates = 2;
  const std::vector<opt::Partition> parts = opt::partition_netlist(n, options);
  ASSERT_EQ(parts.size(), 2u);
  opt::check_partitions(n, parts);
  EXPECT_EQ(opt::canonical_bench_text(n, parts[0]),
            opt::canonical_bench_text(n, parts[1]));
}

TEST(Partition, AoiOaiCellsRoundTripThroughBench) {
  // The canonical cone text leans on the AOI/OAI .bench extension; make
  // sure write/read is gate-exact for a netlist that uses them.
  netlist::Netlist n("aoi", &lib());
  const int aoi21 = lib().cell_index("AOI21");
  const int oai22 = lib().cell_index("OAI22");
  std::vector<int> in;
  for (int i = 0; i < 4; ++i) {
    in.push_back(n.add_signal("i" + std::to_string(i)));
    n.mark_input(in.back());
  }
  const int x = n.add_signal("x");
  const int y = n.add_signal("y");
  n.add_gate("g0", aoi21, {in[0], in[1], in[2]}, x);
  n.add_gate("g1", oai22, {x, in[1], in[2], in[3]}, y);
  n.mark_output(y);
  n.finalize();

  const std::string text = netlist::write_bench(n);
  const netlist::Netlist back = netlist::read_bench(text, "aoi", lib(), "aoi");
  ASSERT_EQ(back.num_gates(), n.num_gates());
  for (int g = 0; g < n.num_gates(); ++g) {
    EXPECT_EQ(back.gate(g).cell_index, n.gate(g).cell_index) << "gate " << g;
    EXPECT_EQ(back.gate(g).fanins.size(), n.gate(g).fanins.size()) << "gate " << g;
  }
}

TEST(Hierarchical, MeetsGlobalConstraintEndToEnd) {
  const netlist::Netlist n = netlist::make_benchmark("c432", lib());
  svc::HierOptions options;
  options.partition.max_gates = 50;
  options.workers = 2;
  options.random_vectors = 16;
  const svc::HierResult hr = svc::optimize_hierarchical(n, options);

  EXPECT_GT(hr.partitions, 1);
  EXPECT_GT(hr.unique_solves, 0u);
  ASSERT_EQ(hr.solution.sleep_vector.size(),
            static_cast<std::size_t>(n.num_control_points()));
  ASSERT_EQ(hr.solution.config.size(), static_cast<std::size_t>(n.num_gates()));

  // The flow's promise: the stitched assignment respects the *global*
  // delay constraint. Re-verify with an independent STA.
  EXPECT_LE(hr.solution.delay_ps, hr.constraint_ps);
  sta::TimingState timing(n);
  sim::CircuitConfig config = hr.solution.config;
  EXPECT_NEAR(timing.analyze(config), hr.solution.delay_ps, 1e-9);

  // Leakage is the exact table evaluation of the stitched sleep vector.
  const std::vector<bool> values = sim::simulate(n, hr.solution.sleep_vector);
  EXPECT_NEAR(
      sim::circuit_leakage_from_values_na(n, hr.solution.config, values),
      hr.solution.leakage_na, 1e-6);
  EXPECT_GT(hr.solution.leakage_na, 0.0);

  // And it should beat the do-nothing baseline: all-fast config under the
  // same sleep vector.
  const sim::CircuitConfig all_fast = sim::fastest_config(n);
  EXPECT_LT(hr.solution.leakage_na,
            sim::circuit_leakage_from_values_na(n, all_fast, values));
}

TEST(Hierarchical, StateMethodKeepsAllFastestStitch) {
  // The state-only baseline assigns no gates: its cones return all-fastest
  // configs and the global greedy gate pass must not run over them, so the
  // result is all-fastest at the stitched sleep vector.
  const netlist::Netlist n = netlist::make_benchmark("c432", lib());
  svc::HierOptions options;
  options.method = "state";
  options.partition.max_gates = 50;
  options.workers = 2;
  options.time_limit_s = 0.05;
  options.random_vectors = 16;
  const svc::HierResult hr = svc::optimize_hierarchical(n, options);

  EXPECT_GT(hr.partitions, 1);
  EXPECT_EQ(hr.repaired_gates, 0);
  const sim::CircuitConfig all_fast = sim::fastest_config(n);
  ASSERT_EQ(hr.solution.config.size(), all_fast.size());
  for (std::size_t g = 0; g < all_fast.size(); ++g) {
    EXPECT_EQ(hr.solution.config[g].variant, all_fast[g].variant) << "gate " << g;
    EXPECT_EQ(hr.solution.config[g].mapping.logical_to_physical,
              all_fast[g].mapping.logical_to_physical)
        << "gate " << g;
  }
  const std::vector<bool> values = sim::simulate(n, hr.solution.sleep_vector);
  EXPECT_DOUBLE_EQ(hr.solution.leakage_na,
                   sim::circuit_leakage_from_values_na(n, all_fast, values));
  EXPECT_DOUBLE_EQ(hr.solution.delay_ps, hr.budget.fast_delay_ps);
}

TEST(Hierarchical, RejectsVtStateMethod) {
  // vtstate cones solve on a dual-Vt twin of the library; the global gate
  // pass runs over the circuit's own library, so the flow refuses it.
  const netlist::Netlist n = netlist::make_benchmark("c432", lib());
  svc::HierOptions options;
  options.method = "vtstate";
  EXPECT_THROW(svc::optimize_hierarchical(n, options), ContractError);
}

TEST(Hierarchical, DedupsIdenticalConesToOneSolve) {
  // Twin-component netlist from above, at partition budget 2: both cones
  // serialize identically, so the scheduler executes one solve and serves
  // the other from the cache (memory hit or inflight wait).
  netlist::Netlist n("twin", &lib());
  const int nand2 = lib().cell_index("NAND2");
  for (int copy = 0; copy < 2; ++copy) {
    const std::string p = "u" + std::to_string(copy) + "_";
    const int a = n.add_signal(p + "a");
    const int b = n.add_signal(p + "b");
    const int x = n.add_signal(p + "x");
    n.mark_input(a);
    n.mark_input(b);
    n.add_gate(p + "g0", nand2, {a, b}, x);
    n.mark_output(x);
  }
  n.finalize();

  svc::HierOptions options;
  options.partition.max_gates = 1;
  options.workers = 1;  // serialize so the second job is a clean cache hit
  options.random_vectors = 4;

  // Legacy context-free flow: the two cone jobs are byte-identical, so the
  // cache collapses them to a single solve.
  options.pin_boundaries = false;
  options.seed_boundary_timing = false;
  const svc::HierResult legacy = svc::optimize_hierarchical(n, options);
  EXPECT_EQ(legacy.partitions, 2);
  EXPECT_EQ(legacy.unique_solves, 1u);
  EXPECT_EQ(legacy.cache_hits, 1u);
  EXPECT_LE(legacy.solution.delay_ps, legacy.constraint_ps);

  // Boundary-aware default flow: both twins sit at level 0 so the sweep
  // jobs keep the historical context-free key, and the cache still
  // collapses them to 1 solve + 1 hit.
  options.pin_boundaries = true;
  options.seed_boundary_timing = true;
  const svc::HierResult hr = svc::optimize_hierarchical(n, options);
  EXPECT_EQ(hr.partitions, 2);
  EXPECT_EQ(hr.unique_solves, 1u);
  EXPECT_EQ(hr.cache_hits, 1u);
  EXPECT_LE(hr.solution.delay_ps, hr.constraint_ps);
}

TEST(Hierarchical, RandomDagUnderPartitionMatchesConstraint) {
  netlist::DagOptions dag;
  dag.num_inputs = 24;
  dag.num_gates = 600;
  dag.target_depth = 12;
  dag.seed = 11;
  const netlist::Netlist n = netlist::random_dag(lib(), "hd", dag);
  svc::HierOptions options;
  options.partition.max_gates = 100;
  options.workers = 2;
  options.random_vectors = 8;
  const svc::HierResult hr = svc::optimize_hierarchical(n, options);
  EXPECT_GT(hr.partitions, 1);
  EXPECT_LE(hr.solution.delay_ps, hr.constraint_ps);
}

}  // namespace
}  // namespace svtox
