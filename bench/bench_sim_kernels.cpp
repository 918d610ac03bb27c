// Word-parallel (64-wide) simulation kernel benchmark: the curated
// BENCH_sim_kernels.json artifact behind the README performance table.
//
// Three same-work Monte-Carlo leakage implementations, on c6288 (16x16
// array multiplier, NAND2/INV only) and on c7552 (whose 3- and 4-input
// cells exercise every fanin count of the packed accumulation):
//
//   scalar -- one vector at a time through sim::simulate (the reference
//             backend, sim::SimBackend::kScalar);
//   hybrid -- word-parallel sim::simulate64 followed by per-lane scalar
//             state extraction + accumulation (what the code did before
//             the packed subsystem existed);
//   packed -- sim::PackedBoolSim bit-plane simulation with the
//             simd::select_add lane accumulation (sim::SimBackend::kPacked).
//
// All three consume the same Rng word stream and perform the identical
// per-lane FP addition sequence, so their mean/min/max must be
// bit-identical -- the bench asserts this, making the speedups a pure
// same-work comparison. A further section runs the state-only random-probe
// sweep on c6288 scalar vs packed, and the last records thread scaling of
// the packed parallel Monte-Carlo on c6288 at 1/2/4/8 threads.
// On a single-CPU host the scaling curve is necessarily flat -- that is
// the honest datum, not a bug; `hardware_threads` in the context says
// which regime the numbers were captured in.
//
// Knobs: SVTOX_VECTORS (default 10000), SVTOX_PROBES (default 512);
// argv[1] overrides the output path. Non-Release builds refuse to write
// the artifact unless SVTOX_ALLOW_DEBUG_BENCH=1 (bench/common.hpp).
#include <thread>

#include "bench/common.hpp"
#include "opt/problem.hpp"
#include "opt/state_search.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/packed.hpp"
#include "sim/sim.hpp"
#include "svc/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace svtox;

/// The pre-packed word-parallel implementation: simulate64 for the values,
/// then per-lane scalar accumulation through the public leakage API. Same
/// Rng stream and per-lane gate-order additions as both backends.
sim::MonteCarloResult hybrid_monte_carlo(const netlist::Netlist& netlist,
                                         const sim::CircuitConfig& config,
                                         int num_vectors, std::uint64_t seed) {
  Rng rng(seed);
  sim::MonteCarloResult result;
  result.vectors = num_vectors;
  result.min_na = 1e300;
  result.max_na = -1e300;
  double sum = 0.0;
  std::vector<std::uint64_t> pi_words(
      static_cast<std::size_t>(netlist.num_control_points()));
  std::vector<bool> values(static_cast<std::size_t>(netlist.num_signals()));
  int remaining = num_vectors;
  while (remaining > 0) {
    const int lanes = std::min(remaining, 64);
    for (auto& word : pi_words) word = rng.next_u64();
    const std::vector<std::uint64_t> words = sim::simulate64(netlist, pi_words);
    for (int lane = 0; lane < lanes; ++lane) {
      for (std::size_t s = 0; s < values.size(); ++s) {
        values[s] = ((words[s] >> lane) & 1u) != 0;
      }
      const double total =
          sim::circuit_leakage_from_values_na(netlist, config, values);
      sum += total;
      result.min_na = std::min(result.min_na, total);
      result.max_na = std::max(result.max_na, total);
    }
    remaining -= lanes;
  }
  result.mean_na = sum / num_vectors;
  return result;
}

bool same_result(const sim::MonteCarloResult& a, const sim::MonteCarloResult& b) {
  return a.mean_na == b.mean_na && a.min_na == b.min_na && a.max_na == b.max_na;
}

/// Times the three Monte-Carlo implementations on the benchmark `circuit`;
/// returns false (after printing why) when their results are not
/// bit-identical.
bool monte_carlo_section(const liberty::Library& library, const char* circuit,
                         int vectors, std::uint64_t seed, svc::Json::Array& rows) {
  const netlist::Netlist netlist = netlist::make_benchmark(circuit, library);
  const sim::CircuitConfig config = sim::fastest_config(netlist);
  Timer timer;
  const sim::MonteCarloResult scalar = sim::monte_carlo_leakage(
      netlist, config, vectors, seed, sim::SimBackend::kScalar);
  const double scalar_s = timer.seconds();

  timer.reset();
  const sim::MonteCarloResult hybrid =
      hybrid_monte_carlo(netlist, config, vectors, seed);
  const double hybrid_s = timer.seconds();

  timer.reset();
  const sim::MonteCarloResult packed = sim::monte_carlo_leakage(
      netlist, config, vectors, seed, sim::SimBackend::kPacked);
  const double packed_s = timer.seconds();

  const bool identical = same_result(scalar, packed) && same_result(scalar, hybrid);
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: %s backends disagree (scalar %.17g hybrid %.17g packed "
                 "%.17g) -- the speedup numbers would be meaningless\n",
                 circuit, scalar.mean_na, hybrid.mean_na, packed.mean_na);
    return false;
  }

  std::printf("monte_carlo_leakage %s, %d vectors (mean %.3f nA):\n",
              circuit, vectors, packed.mean_na);
  std::printf("  scalar  %.4fs\n", scalar_s);
  std::printf("  hybrid  %.4fs  (%.1fx)\n", hybrid_s, scalar_s / hybrid_s);
  std::printf("  packed  %.4fs  (%.1fx)\n\n", packed_s, scalar_s / packed_s);

  svc::Json mc = svc::Json::object();
  mc.set("circuit", circuit);
  mc.set("gates", netlist.num_gates());
  mc.set("vectors", vectors);
  mc.set("mean_na", packed.mean_na);
  mc.set("scalar_s", scalar_s);
  mc.set("hybrid_s", hybrid_s);
  mc.set("packed_s", packed_s);
  mc.set("hybrid_speedup_x", scalar_s / hybrid_s);
  mc.set("packed_speedup_x", scalar_s / packed_s);
  mc.set("bit_identical", identical);
  rows.push_back(std::move(mc));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svtox;
  bench::print_header("word-parallel simulation kernels",
                      "engineering artifact (no paper table)");

  // This bench always writes its artifact, so the provenance guard runs
  // up front rather than after minutes of measurement.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_sim_kernels.json";
  bench::check_artifact_build_type(out_path);

  const auto library = liberty::Library::build(model::TechParams::nominal(), {});
  const netlist::Netlist netlist = netlist::make_benchmark("c6288", library);
  const sim::CircuitConfig config = sim::fastest_config(netlist);
  const int vectors = bench::mc_vectors();
  const std::uint64_t seed = 42;

  svc::Json doc = svc::Json::object();
  doc.set("bench", "sim_kernels");
  svc::Json context = svc::Json::object();
  context.set("svtox_build_type", bench::build_type());
  context.set("simd_dispatch", simd::dispatch_name());
  context.set("hardware_threads",
              static_cast<int>(std::thread::hardware_concurrency()));
  doc.set("context", context);

  // --- Monte-Carlo backends, same work, bit-identical results ----------
  svc::Json::Array mc_rows;
  for (const char* circuit : {"c6288", "c7552"}) {
    if (!monte_carlo_section(library, circuit, vectors, seed, mc_rows)) return 1;
  }
  doc.set("monte_carlo", svc::Json(std::move(mc_rows)));

  // --- State-only probe sweep, scalar vs packed backend ----------------
  const opt::AssignmentProblem problem(netlist, 0.05);
  opt::SearchOptions sweep;
  sweep.time_limit_s = 1e9;  // drain the whole probe set
  sweep.max_leaves = 1;      // probes only; no continued tree search
  sweep.random_probes = bench::env_int("SVTOX_PROBES", 512);
  sweep.threads = 1;

  sweep.sim_backend = sim::SimBackend::kScalar;
  Timer timer;
  const opt::Solution sweep_scalar = opt::state_only_search(problem, sweep);
  const double sweep_scalar_s = timer.seconds();

  sweep.sim_backend = sim::SimBackend::kPacked;
  timer.reset();
  const opt::Solution sweep_packed = opt::state_only_search(problem, sweep);
  const double sweep_packed_s = timer.seconds();

  if (sweep_scalar.leakage_na != sweep_packed.leakage_na) {
    std::fprintf(stderr, "FATAL: probe sweep backends disagree (%.17g vs %.17g)\n",
                 sweep_scalar.leakage_na, sweep_packed.leakage_na);
    return 1;
  }
  std::printf("state-only probe sweep c6288, %d probes:\n", sweep.random_probes);
  std::printf("  scalar  %.4fs\n", sweep_scalar_s);
  std::printf("  packed  %.4fs  (%.1fx)\n\n", sweep_packed_s,
              sweep_scalar_s / sweep_packed_s);

  svc::Json probes = svc::Json::object();
  probes.set("circuit", "c6288");
  probes.set("probes", sweep.random_probes);
  probes.set("scalar_s", sweep_scalar_s);
  probes.set("packed_s", sweep_packed_s);
  probes.set("speedup_x", sweep_scalar_s / sweep_packed_s);
  probes.set("same_result", true);
  doc.set("probe_sweep", probes);

  // --- Thread scaling of the packed parallel Monte-Carlo ---------------
  // Per-chunk seeds make the estimate thread-count-invariant, so every row
  // does identical work. Expect ~linear gains up to hardware_threads and a
  // flat line beyond (or everywhere, on a 1-CPU host).
  const int scaling_vectors = vectors * 4;
  svc::Json::Array scaling;
  double one_thread_s = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    timer.reset();
    const sim::MonteCarloResult r = sim::monte_carlo_leakage_parallel(
        netlist, config, scaling_vectors, seed, threads, sim::SimBackend::kPacked);
    const double seconds = timer.seconds();
    if (threads == 1) one_thread_s = seconds;
    std::printf("parallel packed MC, %d vectors, %d thread(s): %.4fs (%.2fx)\n",
                scaling_vectors, threads, seconds, one_thread_s / seconds);
    svc::Json row = svc::Json::object();
    row.set("threads", threads);
    row.set("seconds", seconds);
    row.set("speedup_x", one_thread_s / seconds);
    row.set("mean_na", r.mean_na);
    scaling.push_back(std::move(row));
  }
  doc.set("scaling", svc::Json(std::move(scaling)));
  doc.set("scaling_vectors", scaling_vectors);
  doc.set("svtox_build_type", bench::build_type());

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  const std::string text = doc.dump();
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
