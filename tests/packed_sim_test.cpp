// Packed-vs-scalar equivalence property tests for the word-parallel
// simulation subsystem (sim/packed.hpp, cellkit/plane_compile.hpp,
// opt/packed_bound.hpp, util/simd.hpp).
//
// The packed kernels are documented as *bit-identical* to their scalar
// references -- not merely close -- because every lane's FP additions
// happen in the same order as the scalar loop (see DESIGN.md Sec. 11's
// reassociation policy). These tests enforce that documented tolerance of
// exactly zero: EXPECT_EQ on doubles throughout, never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>

#include "cellkit/plane_compile.hpp"
#include "cellkit/topology.hpp"
#include "liberty/nldm.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generators.hpp"
#include "opt/packed_bound.hpp"
#include "opt/state_search.hpp"
#include "opt/unknown_state.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace svtox {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

netlist::Netlist random_net(std::uint64_t seed, int inputs, int gates) {
  return netlist::random_circuit(lib(), "packed_r", inputs, gates, seed);
}

netlist::Netlist bundled(const char* file) {
  const std::string path =
      (std::filesystem::path(__FILE__).parent_path().parent_path() / "data" / file)
          .string();
  return netlist::read_bench_file(path, lib());
}

// ---------------------------------------------------------------------------
// Plane-program compilation.

TEST(PlaneCompile, EveryStandardCellCompilesExact) {
  // Every standard cell's pull-down is a series/parallel expression where
  // each pin drives exactly one device, so Kleene plane evaluation must be
  // flagged exact (the compiler verifies against all 3^k ternary states).
  for (const std::string& name : cellkit::standard_cell_names()) {
    const cellkit::CellTopology topo =
        cellkit::make_standard_cell(name, model::TechParams::nominal());
    const cellkit::PlaneProgram program = cellkit::compile_plane_program(topo);
    EXPECT_TRUE(program.exact_ternary) << name;
    EXPECT_GE(program.max_stack, 1) << name;
    EXPECT_LE(program.ops.size(),
              static_cast<std::size_t>(2 * topo.num_states())) << name;
  }
}

// ---------------------------------------------------------------------------
// Packed 2-valued simulation.

void expect_packed_matches_simulate64(const netlist::Netlist& net,
                                      std::uint64_t seed, int passes) {
  sim::PackedBoolSim packed(net);
  Rng rng(seed);
  std::vector<std::uint64_t> pi_words(
      static_cast<std::size_t>(net.num_control_points()));
  for (int pass = 0; pass < passes; ++pass) {
    for (auto& w : pi_words) w = rng.next_u64();
    const std::vector<std::uint64_t> reference = sim::simulate64(net, pi_words);
    const std::vector<std::uint64_t>& got = packed.run(pi_words);
    ASSERT_EQ(got, reference) << "pass " << pass;
  }
}

TEST(PackedBoolSim, MatchesSimulate64OnRandomNetlists) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    const auto net = random_net(seed, 6 + static_cast<int>(seed % 7),
                                40 + 25 * static_cast<int>(seed % 5));
    expect_packed_matches_simulate64(net, seed * 97, 8);
  }
}

TEST(PackedBoolSim, MatchesSimulate64OnBundledCircuits) {
  expect_packed_matches_simulate64(bundled("c17.bench"), 21, 8);
  expect_packed_matches_simulate64(bundled("s27.bench"), 22, 8);
  expect_packed_matches_simulate64(netlist::make_benchmark("c6288", lib()), 23, 2);
}

// ---------------------------------------------------------------------------
// Packed ternary simulation: lane-for-lane against simulate_ternary,
// including lanes whose inputs carry X.

TEST(PackedTernarySim, MatchesSimulateTernaryLaneForLane) {
  for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const auto net = random_net(seed, 9, 70 + 10 * static_cast<int>(seed % 3));
    sim::PackedTernarySim packed(net);
    Rng rng(seed * 59);
    const auto num_cps = static_cast<std::size_t>(net.num_control_points());

    // 64 random ternary assignments, one per lane; ~1/3 of pins X.
    std::vector<std::vector<sim::Tri>> assignments(64);
    std::vector<cellkit::TriWord> planes(num_cps);
    for (int lane = 0; lane < 64; ++lane) {
      assignments[static_cast<std::size_t>(lane)].resize(num_cps);
      for (std::size_t i = 0; i < num_cps; ++i) {
        const auto tri = static_cast<sim::Tri>(rng.next_below(3));
        assignments[static_cast<std::size_t>(lane)][i] = tri;
        if (tri == sim::Tri::kOne) planes[i].ones |= 1ULL << lane;
        if (tri == sim::Tri::kX) planes[i].xs |= 1ULL << lane;
      }
    }
    const std::vector<cellkit::TriWord>& out = packed.run(planes);
    for (int lane = 0; lane < 64; ++lane) {
      const std::vector<sim::Tri> reference =
          sim::simulate_ternary(net, assignments[static_cast<std::size_t>(lane)]);
      for (int s = 0; s < net.num_signals(); ++s) {
        const cellkit::TriWord w = out[static_cast<std::size_t>(s)];
        sim::Tri got = sim::Tri::kZero;
        if ((w.xs >> lane) & 1ULL) {
          got = sim::Tri::kX;
        } else if ((w.ones >> lane) & 1ULL) {
          got = sim::Tri::kOne;
        }
        ASSERT_EQ(got, reference[static_cast<std::size_t>(s)])
            << "seed " << seed << " lane " << lane << " signal " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Monte-Carlo leakage: packed backend bit-identical to the scalar
// reference, including tails (num_vectors % 64 != 0).

void expect_mc_backends_identical(const netlist::Netlist& net, int num_vectors,
                                  std::uint64_t seed) {
  const sim::CircuitConfig config = sim::fastest_config(net);
  const sim::MonteCarloResult scalar = sim::monte_carlo_leakage(
      net, config, num_vectors, seed, sim::SimBackend::kScalar);
  const sim::MonteCarloResult packed = sim::monte_carlo_leakage(
      net, config, num_vectors, seed, sim::SimBackend::kPacked);
  EXPECT_EQ(scalar.mean_na, packed.mean_na) << num_vectors << " vectors";
  EXPECT_EQ(scalar.min_na, packed.min_na) << num_vectors << " vectors";
  EXPECT_EQ(scalar.max_na, packed.max_na) << num_vectors << " vectors";
  EXPECT_EQ(scalar.vectors, packed.vectors);
}

TEST(MonteCarloLeakage, BackendsBitIdenticalIncludingTails) {
  const auto net = random_net(41, 10, 80);
  // 1 and 63: single partial pass. 64: exactly one full pass. 65/100/127:
  // full pass + tails of every flavor. 256: multiple full passes.
  for (int vectors : {1, 63, 64, 65, 100, 127, 256}) {
    expect_mc_backends_identical(net, vectors, 0xabcdefULL);
  }
}

TEST(MonteCarloLeakage, BackendsBitIdenticalOnBundledCircuits) {
  expect_mc_backends_identical(bundled("c17.bench"), 200, 7);
  expect_mc_backends_identical(bundled("s27.bench"), 200, 7);
  expect_mc_backends_identical(netlist::make_benchmark("c6288", lib()), 100, 7);
}

TEST(MonteCarloLeakage, ParallelBackendsBitIdenticalAcrossThreadCounts) {
  const auto net = random_net(43, 12, 120);
  const sim::CircuitConfig config = sim::fastest_config(net);
  // 2500 vectors: multiple 1024-vector chunks plus a 452-vector chunk whose
  // last pass carries a 4-lane tail.
  const sim::MonteCarloResult reference = sim::monte_carlo_leakage_parallel(
      net, config, 2500, 99, /*threads=*/1, sim::SimBackend::kScalar);
  for (int threads : {1, 2, 4}) {
    const sim::MonteCarloResult packed = sim::monte_carlo_leakage_parallel(
        net, config, 2500, 99, threads, sim::SimBackend::kPacked);
    EXPECT_EQ(reference.mean_na, packed.mean_na) << threads << " threads";
    EXPECT_EQ(reference.min_na, packed.min_na) << threads << " threads";
    EXPECT_EQ(reference.max_na, packed.max_na) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// State histogram: integer counts byte-identical across backends, and lane
// accounting exact (every vector lands in exactly one state per gate).

TEST(StateHistogram, BackendsIdenticalAndLanesAccounted) {
  for (int vectors : {1, 65, 200}) {
    const auto net = random_net(51, 8, 60);
    const auto packed =
        sim::state_histogram(net, vectors, 77, sim::SimBackend::kPacked);
    const auto scalar =
        sim::state_histogram(net, vectors, 77, sim::SimBackend::kScalar);
    ASSERT_EQ(packed, scalar) << vectors << " vectors";
    for (const auto& gate_counts : packed) {
      std::uint64_t total = 0;
      for (std::uint64_t c : gate_counts) total += c;
      EXPECT_EQ(total, static_cast<std::uint64_t>(vectors));
    }
  }
}

TEST(UnknownState, BackendChoiceDoesNotChangeTheAssignment) {
  const auto net = random_net(53, 9, 70);
  const opt::AssignmentProblem problem(net, 0.05);
  opt::UnknownStateOptions options;
  options.probability_vectors = 300;  // deliberately % 64 != 0
  options.backend = sim::SimBackend::kScalar;
  const auto scalar = opt::assign_unknown_state(problem, options);
  options.backend = sim::SimBackend::kPacked;
  const auto packed = opt::assign_unknown_state(problem, options);
  EXPECT_EQ(scalar.expected_leakage_na, packed.expected_leakage_na);
  EXPECT_EQ(scalar.average_leakage_na, packed.average_leakage_na);
  EXPECT_EQ(scalar.delay_ps, packed.delay_ps);
  ASSERT_EQ(scalar.config.size(), packed.config.size());
  for (std::size_t g = 0; g < scalar.config.size(); ++g) {
    EXPECT_EQ(scalar.config[g].variant, packed.config[g].variant) << "gate " << g;
  }
}

// ---------------------------------------------------------------------------
// Packed partial bounds: bit-identical to leakage_lower_bound_na.

TEST(PackedBounds, PrefixBoundsMatchReferenceForBothKinds) {
  for (std::uint64_t seed : {61ULL, 62ULL}) {
    const auto net = random_net(seed, 8, 60);
    const opt::AssignmentProblem problem(net, 0.05);
    const int split_levels = 5;
    const std::uint32_t num_subtrees = 1u << split_levels;
    for (const opt::BoundKind kind :
         {opt::BoundKind::kMinVariant, opt::BoundKind::kFastestVariant}) {
      const std::vector<double> packed =
          opt::packed_prefix_bounds(problem, kind, split_levels, num_subtrees);
      ASSERT_EQ(packed.size(), num_subtrees);
      for (std::uint32_t subtree = 0; subtree < num_subtrees; ++subtree) {
        std::vector<sim::Tri> inputs(
            static_cast<std::size_t>(net.num_control_points()), sim::Tri::kX);
        for (int level = 0; level < split_levels; ++level) {
          inputs[static_cast<std::size_t>(problem.input_order()[level])] =
              ((subtree >> level) & 1u) != 0 ? sim::Tri::kOne : sim::Tri::kZero;
        }
        const double reference = opt::leakage_lower_bound_na(problem, inputs, kind);
        EXPECT_EQ(packed[subtree], reference)
            << "seed " << seed << " subtree " << subtree;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed probe sweep: state-only search results do not depend on the
// backend or the thread count (exercised via the public search entry).

TEST(PackedProbeSweep, StateOnlySearchBackendAndThreadInvariant) {
  const auto net = random_net(71, 10, 90);
  const opt::AssignmentProblem problem(net, 0.05);
  opt::SearchOptions options;
  options.time_limit_s = 30.0;  // ample: the sweep always fully drains
  options.max_leaves = 1;       // pin the tree phase to Heu1's single leaf
  options.random_probes = 150;  // 2 full batches + a 22-lane tail
  options.sim_backend = sim::SimBackend::kScalar;
  const opt::Solution reference = opt::state_only_search(problem, options);
  for (int threads : {1, 2}) {
    options.threads = threads;
    options.sim_backend = sim::SimBackend::kPacked;
    const opt::Solution packed = opt::state_only_search(problem, options);
    EXPECT_EQ(reference.leakage_na, packed.leakage_na) << threads << " threads";
    EXPECT_EQ(reference.sleep_vector, packed.sleep_vector) << threads << " threads";
    EXPECT_EQ(reference.delay_ps, packed.delay_ps);
    EXPECT_EQ(reference.states_explored, packed.states_explored);
  }
}

TEST(PackedPrescreen, ParallelHeu2MatchesSerialWithPackedBackend) {
  // The root split's packed prefix prescreen must not change the search
  // result (it only skips subtrees the engine bound would also prune).
  const auto net = random_net(73, 8, 50);
  const opt::AssignmentProblem problem(net, 0.05);
  opt::SearchOptions options;
  options.time_limit_s = 30.0;  // exhaustive on 8 inputs: deterministic
  options.sim_backend = sim::SimBackend::kScalar;
  options.threads = 1;
  const opt::Solution serial = opt::heuristic2(problem, options);
  options.sim_backend = sim::SimBackend::kPacked;
  options.threads = 4;
  const opt::Solution split = opt::heuristic2(problem, options);
  EXPECT_EQ(serial.leakage_na, split.leakage_na);
  EXPECT_EQ(serial.sleep_vector, split.sleep_vector);
}

// ---------------------------------------------------------------------------
// SIMD kernels: every dispatched variant bit-identical to its portable
// reference (exercises the AVX2 paths when the host supports them).

TEST(Simd, ScatterAddMatchesPortableBitExactly) {
  Rng rng(81);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) double a[64];
    alignas(32) double b[64];
    for (int i = 0; i < 64; ++i) {
      // Mix magnitudes and signs, including -0.0 lanes (a masked-add
      // implementation that adds 0.0 would rewrite them to +0.0).
      const double v = (rng.next_double() - 0.5) * std::pow(10.0, trial % 7);
      a[i] = (i % 5 == 0) ? -0.0 : v;
      b[i] = a[i];
    }
    const std::uint64_t mask = rng.next_u64() & rng.next_u64();
    const double value = rng.next_double() * 1e3 - 500.0;
    simd::scatter_add(a, mask, value);
    simd::scatter_add_portable(b, mask, value);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial " << trial;
  }
}

TEST(Simd, SelectAddMatchesPortableBitExactly) {
  Rng rng(83);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) double a[64];
    alignas(32) double b[64];
    for (int i = 0; i < 64; ++i) {
      const double v = (rng.next_double() - 0.5) * std::pow(10.0, trial % 7);
      a[i] = (i % 7 == 0) ? -0.0 : v;
      b[i] = a[i];
    }
    const std::uint64_t w0 = rng.next_u64();
    const std::uint64_t w1 = rng.next_u64();
    double leak[4];
    for (double& l : leak) l = rng.next_double() * 1e3;
    if (trial % 2 == 0) {
      simd::select_add1(a, w0, leak);
      simd::select_add1_portable(b, w0, leak);
    } else {
      simd::select_add2(a, w0, w1, leak);
      simd::select_add2_portable(b, w0, w1, leak);
    }
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial " << trial;
  }
}

TEST(Simd, SelectAddStateIndexingMatchesLocalState) {
  // select_add2's state index must follow the cellkit convention
  // (state bit p = pin p): lane value = leak[bit(w0) | bit(w1) << 1].
  alignas(32) double totals[64] = {};
  const double leak[4] = {1.0, 10.0, 100.0, 1000.0};
  // lane 0: (0,0)  lane 1: (1,0)  lane 2: (0,1)  lane 3: (1,1)
  simd::select_add2(totals, 0b1010ULL, 0b1100ULL, leak);
  EXPECT_EQ(1.0, totals[0]);
  EXPECT_EQ(10.0, totals[1]);
  EXPECT_EQ(100.0, totals[2]);
  EXPECT_EQ(1000.0, totals[3]);
}

TEST(Simd, LocateHiMatchesPortableForAllSizesAndQueries) {
  // The inline NLDM segment search (liberty::locate_segment, which counts
  // inner knots below x) against the historical scalar loop
  //   hi = 1; while (hi + 1 < size && axis[hi] < x) ++hi;
  // for every axis size the library accepts up to 12 knots.
  Rng rng(82);
  for (std::size_t size = 1; size <= 12; ++size) {
    std::vector<double> axis(size);
    double knot = -3.0;
    for (std::size_t i = 0; i < size; ++i) {
      knot += 0.25 + rng.next_double() * 10.0;
      axis[i] = knot;
    }
    // Below the first knot, above the last, exactly on knots, in between.
    std::vector<double> queries = {axis[0] - 10.0, axis[size - 1] + 10.0};
    for (std::size_t i = 0; i < size; ++i) {
      queries.push_back(axis[i]);
      queries.push_back(axis[i] + 0.01);
      queries.push_back(axis[i] - 0.01);
    }
    for (int t = 0; t < 50; ++t) {
      queries.push_back(axis[0] - 5.0 + rng.next_double() * (knot - axis[0] + 10.0));
    }
    for (double x : queries) {
      const liberty::AxisSegment got = liberty::locate_segment(axis.data(), size, x);
      std::size_t lo = 0;
      double t = 0.0;
      if (size > 1) {
        std::size_t hi = 1;
        while (hi + 1 < size && axis[hi] < x) ++hi;
        lo = hi - 1;
        t = (x - axis[lo]) / (axis[hi] - axis[lo]);
      }
      ASSERT_EQ(got.lo, lo) << "size " << size << " x " << x;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.t), std::bit_cast<std::uint64_t>(t))
          << "size " << size << " x " << x;
    }
  }
}

TEST(Simd, DispatchNameIsStable) {
  const char* name = simd::dispatch_name();
  ASSERT_TRUE(name != nullptr);
  EXPECT_TRUE(std::string(name) == "avx2" || std::string(name) == "portable");
  EXPECT_EQ(simd::has_avx2(), std::string(name) == "avx2");
}

}  // namespace
}  // namespace svtox
