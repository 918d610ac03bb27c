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
  // c17, s27 and c6288 have only 1- and 2-input gates; c880 and c7552
  // carry the 3- and 4-input cells. 200 vectors = three full passes plus
  // an 8-lane tail.
  expect_mc_backends_identical(netlist::make_benchmark("c880", lib()), 200, 7);
  expect_mc_backends_identical(netlist::make_benchmark("c7552", lib()), 200, 7);
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

/// Lane-major scalar reference for simd::select_add: lane by lane, one add
/// per gate in plan order, state bit p = bit `lane` of pin p's word.
void select_add_reference(double* totals, const std::vector<std::uint64_t>& words,
                          const std::vector<simd::SelectGate>& plan) {
  for (int lane = 0; lane < 64; ++lane) {
    double total = totals[lane];
    for (const simd::SelectGate& gate : plan) {
      std::uint32_t state = 0;
      for (std::uint32_t p = 0; p < gate.num_pins; ++p) {
        if ((words[gate.pins[p]] >> lane) & 1u) state |= 1u << p;
      }
      total += gate.leak[state];
    }
    totals[lane] = total;
  }
}

TEST(Simd, SelectAddMatchesPortableBitExactly) {
  Rng rng(83);
  constexpr std::uint32_t kWords = 12;
  for (int trial = 0; trial < 50; ++trial) {
    // One plan mixing every fanin count 0..4, pins drawn at random (and
    // repeated) from a small word pool, leak rows of mixed magnitudes.
    std::vector<std::uint64_t> words(kWords);
    for (std::uint64_t& w : words) w = rng.next_u64();
    const int num_gates = 1 + static_cast<int>(rng.next_below(40));
    std::vector<std::vector<double>> rows(static_cast<std::size_t>(num_gates));
    std::vector<simd::SelectGate> plan(static_cast<std::size_t>(num_gates));
    for (int g = 0; g < num_gates; ++g) {
      simd::SelectGate& gate = plan[static_cast<std::size_t>(g)];
      gate.num_pins = static_cast<std::uint32_t>(g < 5 ? g : rng.next_below(5));
      for (std::uint32_t p = 0; p < gate.num_pins; ++p) {
        gate.pins[p] = static_cast<std::uint32_t>(rng.next_below(kWords));
      }
      std::vector<double>& row = rows[static_cast<std::size_t>(g)];
      for (std::uint32_t s = 0; s < (1u << gate.num_pins); ++s) {
        row.push_back((rng.next_double() - 0.3) * std::pow(10.0, (g + trial) % 7));
      }
      gate.leak = row.data();
    }
    alignas(32) double dispatched[64];
    alignas(32) double portable[64];
    alignas(32) double reference[64];
    for (int i = 0; i < 64; ++i) {
      // -0.0 starting lanes: a kernel that skipped or reordered an add
      // could leave them bit-different from the reference.
      const double v = (rng.next_double() - 0.5) * std::pow(10.0, trial % 7);
      dispatched[i] = (i % 7 == 0) ? -0.0 : v;
      portable[i] = dispatched[i];
      reference[i] = dispatched[i];
    }
    simd::select_add(dispatched, words.data(), plan.data(), plan.size());
    simd::select_add_portable(portable, words.data(), plan.data(), plan.size());
    select_add_reference(reference, words, plan);
    // All 64 lanes: every 16-lane register block of the AVX2 path.
    ASSERT_EQ(0, std::memcmp(dispatched, reference, sizeof(reference)))
        << "trial " << trial;
    ASSERT_EQ(0, std::memcmp(portable, reference, sizeof(reference)))
        << "trial " << trial;
  }
}

TEST(Simd, SelectAddStateIndexingMatchesLocalState) {
  // The state index must follow the cellkit convention (state bit p =
  // pin p). Word 5 - b holds bit b of every lane index and pin p reads
  // word 5 - p, so lane l of a k-pin gate is in state l mod 2^k; the
  // reversed word order checks the pin indirection too.
  std::vector<std::uint64_t> words(6, 0);
  for (int lane = 0; lane < 64; ++lane) {
    for (int bit = 0; bit < 6; ++bit) {
      if ((lane >> bit) & 1) words[static_cast<std::size_t>(5 - bit)] |= 1ULL << lane;
    }
  }
  const double leak[16] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                           4096, 8192, 16384, 32768};
  for (std::uint32_t k = 1; k <= simd::kMaxSelectPins; ++k) {
    simd::SelectGate gate;
    gate.num_pins = k;
    for (std::uint32_t p = 0; p < k; ++p) gate.pins[p] = 5 - p;
    gate.leak = leak;
    for (const bool dispatched : {true, false}) {
      alignas(32) double totals[64] = {};
      if (dispatched) {
        simd::select_add(totals, words.data(), &gate, 1);
      } else {
        simd::select_add_portable(totals, words.data(), &gate, 1);
      }
      for (int lane = 0; lane < 64; ++lane) {
        ASSERT_EQ(leak[static_cast<std::uint32_t>(lane) & ((1u << k) - 1)], totals[lane])
            << k << " pins, lane " << lane << (dispatched ? " dispatched" : " portable");
      }
    }
  }
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
