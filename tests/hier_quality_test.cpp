// Hierarchical quality gate + boundary-context regression suite.
//
// The level sweep and the global gate pass exist to close the gap to the
// flat solver, so these tests pin the promises that matter: the hier/flat
// leakage ratio on every suite circuit at both partition budgets, the
// gates settled by one global greedy pass at the hier sleep vector,
// byte-identical stitches under any worker count, the cones the sweep
// solves (only those whose votes or seeds can reach the answer) and the
// pinned-inputs contract the sweep is built on (a pinned control point is
// never flipped by any search mode, and pins are part of the
// solution-cache identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/solution_io.hpp"
#include "merged_blocks.hpp"
#include "netlist/benchmarks.hpp"
#include "opt/gate_assign.hpp"
#include "opt/partition.hpp"
#include "opt/problem.hpp"
#include "opt/state_search.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/sim.hpp"
#include "sta/sta.hpp"
#include "svc/fingerprint.hpp"
#include "svc/hier.hpp"

namespace svtox {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

TEST(HierQuality, WithinTenPercentOfFlatHeu1) {
  // The headline acceptance bar over the whole shipped suite and both
  // partition budgets the CLI gate uses: hierarchical leakage within 10%
  // of flat Heu1, every reported solution independently re-verified, and
  // the gates exactly those of one global greedy pass at the hierarchical
  // sleep vector (so hier can only lose to flat through its sleep vector).
  for (const netlist::BenchmarkSpec& spec : netlist::benchmark_suite()) {
    const netlist::Netlist n = netlist::make_benchmark(spec.name, lib());
    svc::HierOptions options;
    options.random_vectors = 64;
    const opt::AssignmentProblem problem(n, options.penalty_fraction);
    const opt::Solution flat = opt::heuristic1(problem);
    ASSERT_GT(flat.leakage_na, 0.0) << spec.name;
    for (const int max_gates : {200, 400}) {
      SCOPED_TRACE(spec.name + " max_gates=" + std::to_string(max_gates));
      options.partition.max_gates = max_gates;
      const svc::HierResult hier = svc::optimize_hierarchical(n, options);

      sta::TimingState timing(n);
      EXPECT_LE(timing.analyze(hier.solution.config), hier.constraint_ps);
      EXPECT_DOUBLE_EQ(
          sim::circuit_leakage_na(n, hier.solution.config, hier.solution.sleep_vector),
          hier.solution.leakage_na);
      const opt::Solution greedy =
          opt::assign_gates_greedy(problem, hier.solution.sleep_vector);
      EXPECT_NEAR(hier.solution.leakage_na, greedy.leakage_na, 1e-6);

      const double ratio = hier.solution.leakage_na / flat.leakage_na;
      EXPECT_LE(ratio, 1.10) << "hier " << hier.solution.leakage_na
                             << " nA vs flat " << flat.leakage_na << " nA";
    }
  }
}

TEST(HierQuality, StitchIsDeterministicAcrossWorkerCounts) {
  // Votes are applied in ascending partition-id order within each level,
  // independent of scheduler completion order, and the global greedy
  // pass gives the same bits on any number of lanes -- so the whole
  // solution must be byte-identical no matter how many workers raced on
  // the cone jobs and the lanes. alu64 is the case where the stitched gate
  // configs were furthest from the global greedy candidate; the merged
  // blocks have several lanes, so workers > 1 takes the multi-lane pass.
  const auto check = [](const netlist::Netlist& n, int max_gates,
                        std::initializer_list<int> worker_counts) {
    SCOPED_TRACE(n.name());
    svc::HierOptions options;
    options.partition.max_gates = max_gates;
    options.random_vectors = 16;
    std::string reference;
    for (int workers : worker_counts) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      options.workers = workers;
      const svc::HierResult hr = svc::optimize_hierarchical(n, options);
      const std::string text = core::write_solution(hr.solution, n);
      if (reference.empty()) {
        reference = text;
      } else {
        EXPECT_EQ(text, reference);
      }
    }
  };
  check(netlist::make_benchmark("c880", lib()), 60, {1, 4});
  check(netlist::make_benchmark("alu64", lib()), 200, {1, 4});
  check(merged_blocks(lib(), {12, 16, 20, 24}, 600, 5), 300, {1, 2, 4});
}

TEST(HierQuality, Heu1IgnoresBoundarySeeds) {
  // Heu1's cone descent is delay-blind, so boundary timing seeds cannot
  // change its votes: the flow runs heu1 cones unseeded, and the option
  // leaves the solution byte-identical.
  const netlist::Netlist n = netlist::make_benchmark("c6288", lib());
  svc::HierOptions options;
  options.partition.max_gates = 400;
  options.random_vectors = 64;
  options.seed_boundary_timing = false;
  const svc::HierResult unseeded = svc::optimize_hierarchical(n, options);
  options.seed_boundary_timing = true;
  const svc::HierResult seeded = svc::optimize_hierarchical(n, options);
  EXPECT_EQ(core::write_solution(seeded.solution, n),
            core::write_solution(unseeded.solution, n));
  EXPECT_LE(seeded.solution.delay_ps, seeded.constraint_ps);
}

/// Cones the sweep must solve, from the partition structure alone: in
/// sweep order (ascending level, then partition id) a cone votes when it
/// is the first to hold some control point among its boundary inputs.
/// With `seeded`, every cone below the last voting level is solved too.
int expected_solves(const netlist::Netlist& n, const opt::PartitionOptions& options,
                    bool seeded) {
  const std::vector<opt::Partition> parts = opt::partition_netlist(n, options);
  std::vector<int> part_of(static_cast<std::size_t>(n.num_gates()), -1);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const int g : parts[p].gates) part_of[static_cast<std::size_t>(g)] = static_cast<int>(p);
  }
  std::vector<int> level(parts.size(), 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const int f : parts[p].boundary_inputs) {
      const int d = n.driver(f);
      if (d >= 0) {
        level[p] = std::max(level[p],
                            level[static_cast<std::size_t>(part_of[static_cast<std::size_t>(d)])] + 1);
      }
    }
  }
  std::vector<std::size_t> order(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return level[a] < level[b]; });
  const std::vector<int>& cps = n.control_points();
  std::vector<bool> held(static_cast<std::size_t>(n.num_signals()), false);
  std::vector<bool> votes(parts.size(), false);
  int last_voting_level = 0;
  for (const std::size_t p : order) {
    for (const int f : parts[p].boundary_inputs) {
      if (held[static_cast<std::size_t>(f)] ||
          std::find(cps.begin(), cps.end(), f) == cps.end()) {
        continue;
      }
      held[static_cast<std::size_t>(f)] = true;
      votes[p] = true;
      last_voting_level = level[p];
    }
  }
  int solves = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (votes[p] || (seeded && level[p] < last_voting_level)) ++solves;
  }
  return solves;
}

TEST(HierQuality, SolvesOnlyVotingCones) {
  // A cone reaches the answer only through its first sleep-bit votes and,
  // for heu2/exact, through the boundary seeds it feeds later voters, so
  // heu1 submits only the voting cones and heu2 adds every cone below the
  // last voting level. Skipping the others must not move the answer:
  // the heu1 solution texts are the ones the flow wrote when it still
  // solved every cone.
  struct Case {
    netlist::Netlist n;
    int max_gates;
    int voters;
    const char* digest;
  };
  const std::vector<Case> cases = [] {
    std::vector<Case> out;
    out.push_back({netlist::make_benchmark("c6288", lib()), 200, 2, "cf4231198e79a68d"});
    out.push_back({netlist::make_benchmark("alu64", lib()), 200, 3, "5ab1e4b3a37ba2a0"});
    out.push_back({merged_blocks(lib(), {12, 16, 20, 24}, 600, 5), 300, 4, "5638fa6ac94b2b72"});
    return out;
  }();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n.name() + " max_gates=" + std::to_string(c.max_gates));
    svc::HierOptions options;
    options.partition.max_gates = c.max_gates;
    options.random_vectors = 16;
    const int voters = expected_solves(c.n, options.partition, false);
    EXPECT_EQ(voters, c.voters);
    for (const int workers : {1, 4}) {
      SCOPED_TRACE("heu1 workers=" + std::to_string(workers));
      options.workers = workers;
      const svc::HierResult hr = svc::optimize_hierarchical(c.n, options);
      EXPECT_GT(hr.partitions, voters);
      EXPECT_EQ(hr.unique_solves + hr.cache_hits, static_cast<std::uint64_t>(voters));
      const std::string text = core::write_solution(hr.solution, c.n);
      EXPECT_EQ(svc::hex64(svc::Fnv().str(text).value()), c.digest);
    }

    options.method = "heu2";
    options.time_limit_s = 0.02;
    options.workers = 4;
    const svc::HierResult hr = svc::optimize_hierarchical(c.n, options);
    EXPECT_EQ(hr.unique_solves + hr.cache_hits,
              static_cast<std::uint64_t>(expected_solves(c.n, options.partition, true)));
    EXPECT_LE(hr.solution.delay_ps, hr.constraint_ps);
  }
}

TEST(PinnedInputs, NoSearchModeFlipsAPinnedControlPoint) {
  // The level sweep's soundness rests on this: a control point pinned via
  // SearchOptions::pinned_inputs holds its value at every leaf the search
  // (or its probe sweep) evaluates, in every search mode the cone jobs
  // dispatch to.
  const netlist::Netlist n = netlist::make_benchmark("c432", lib());
  const opt::AssignmentProblem problem(n, 0.05);
  const int cps = n.num_control_points();
  ASSERT_GE(cps, 4);

  opt::SearchOptions options;
  options.pinned_inputs.assign(cps, sim::Tri::kX);
  options.pinned_inputs[0] = sim::Tri::kOne;
  options.pinned_inputs[1] = sim::Tri::kZero;
  options.pinned_inputs[cps - 1] = sim::Tri::kOne;
  options.time_limit_s = 0.2;
  options.max_leaves = 32;
  options.random_probes = 8;

  const auto check = [&](const opt::Solution& s, const char* mode) {
    SCOPED_TRACE(mode);
    ASSERT_EQ(s.sleep_vector.size(), static_cast<std::size_t>(cps));
    EXPECT_TRUE(s.sleep_vector[0]);
    EXPECT_FALSE(s.sleep_vector[1]);
    EXPECT_TRUE(s.sleep_vector[cps - 1]);
  };
  check(opt::heuristic1(problem, options), "heu1");
  check(opt::heuristic2(problem, options), "heu2");
  check(opt::state_only_search(problem, options), "state-only");
}

TEST(PinnedInputs, CacheKeyChangesWithBoundaryContext) {
  // Cones solved under different stitched contexts must not alias one
  // cache entry: the pinned-input string and the boundary-timing seed are
  // both part of the key, and the empty strings reproduce the historical
  // (context-free) key.
  const std::uint64_t library_fp = svc::fingerprint_library(lib());
  const std::uint64_t netlist_fp =
      svc::fingerprint_netlist(netlist::make_benchmark("c432", lib()));
  svc::RunKnobs knobs;
  knobs.method = "heu1";
  knobs.penalty_fraction = 0.05;
  knobs.random_vectors = 16;
  knobs.seed = 2004;
  const std::string context_free = svc::cache_key(library_fp, netlist_fp, knobs);

  knobs.pinned_inputs = "1x0";
  const std::string pinned = svc::cache_key(library_fp, netlist_fp, knobs);
  EXPECT_NE(pinned, context_free);

  knobs.pinned_inputs = "1x1";
  EXPECT_NE(svc::cache_key(library_fp, netlist_fp, knobs), pinned);

  knobs.pinned_inputs = "1x0";
  EXPECT_EQ(svc::cache_key(library_fp, netlist_fp, knobs), pinned);

  knobs.boundary_timing = "120:14,0:0,310:22";
  EXPECT_NE(svc::cache_key(library_fp, netlist_fp, knobs), pinned);
}

}  // namespace
}  // namespace svtox
