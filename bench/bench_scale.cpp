// Scale benchmark: the BENCH_scale.json artifact behind the README scale
// table (flat SoA netlist core + hierarchical partitioned optimization).
//
// Four sections:
//
//   kernels   -- flat-vs-pointer gates/sec for three same-work simulation
//                kernels (full scalar sweep, 64-wide word-parallel sweep,
//                event-driven single-bit flips) on c6288 and the largest
//                generated circuit in the run. The "pointer" side is the
//                pre-refactor implementation embedded below verbatim in
//                algorithm (Gate-struct walks through the pointer API);
//                the "flat" side is the shipped SoA code path. Both sides
//                consume identical inputs and must produce bit-identical
//                values -- the bench exits 1 otherwise, so the speedups
//                are pure data-layout comparisons.
//   memory    -- peak RSS (getrusage ru_maxrss) sampled after each build
//                stage, so the artifact records what the 100k..1M-gate
//                netlists actually cost to hold.
//   hier      -- hierarchical Heu1 end-to-end wall-clock on the generated
//                scale presets (default dag10k,dag100k; add dag500k and
//                up with SVTOX_SCALE_PRESETS), with partition count,
//                cone-cache stats and the verified global delay margin.
//   gap       -- hierarchical vs flat Heu1 leakage on c6288, the largest
//                circuit where the flat reference is cheap. The gap is
//                the honest price of the boundary-state relaxation (cone
//                optimizers assume controllable boundaries); it is
//                published, not hidden.
//
// Knobs: SVTOX_SCALE_PRESETS (comma list of netlist::scale_circuit_names()
// entries, default "dag10k,dag100k"), SVTOX_SCALE_VECTORS (full-sim
// vectors, default 200), SVTOX_SCALE_WORDS (word-parallel sweeps, default
// 100), SVTOX_SCALE_FLIPS (incremental flips, default 20000),
// SVTOX_SCALE_MAX_GATES (partition budget, default 2000); argv[1]
// overrides the output path. Non-Release builds refuse to write the
// artifact unless SVTOX_ALLOW_DEBUG_BENCH=1 (bench/common.hpp).
#include <sys/resource.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "netlist/generators.hpp"
#include "opt/problem.hpp"
#include "opt/state_search.hpp"
#include "sim/incremental.hpp"
#include "sim/sim.hpp"
#include "svc/hier.hpp"
#include "svc/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace svtox;

/// Peak resident set size so far, in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Embedded pre-refactor (pointer-chasing) kernels ----------------------
// These walk the Gate-struct pointer API exactly as src/sim did before the
// FlatNetlist rewire: nested std::vector adjacency, int ids, per-gate
// cell_of() indirection. Keep them in sync with nothing -- they are the
// frozen baseline.

std::uint32_t pointer_local_state(const netlist::Netlist& netlist,
                                  const std::vector<bool>& values, int gate) {
  const netlist::Gate& g = netlist.gate(gate);
  std::uint32_t state = 0;
  for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
    if (values[static_cast<std::size_t>(g.fanins[pin])]) state |= 1u << pin;
  }
  return state;
}

std::vector<bool> pointer_simulate(const netlist::Netlist& netlist,
                                   const std::vector<bool>& input_values) {
  std::vector<bool> values(static_cast<std::size_t>(netlist.num_signals()), false);
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    values[static_cast<std::size_t>(netlist.control_points()[i])] = input_values[i];
  }
  for (int g : netlist.topological_order()) {
    const std::uint32_t state = pointer_local_state(netlist, values, g);
    values[static_cast<std::size_t>(netlist.gate(g).output)] =
        netlist.cell_of(g).topology().output(state);
  }
  return values;
}

std::vector<std::uint64_t> pointer_simulate64(
    const netlist::Netlist& netlist, const std::vector<std::uint64_t>& input_words) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>(netlist.num_signals()), 0);
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    words[static_cast<std::size_t>(netlist.control_points()[i])] = input_words[i];
  }
  for (int g : netlist.topological_order()) {
    const netlist::Gate& gate = netlist.gate(g);
    const cellkit::CellTopology& topo = netlist.cell_of(g).topology();
    const int k = topo.num_inputs();
    std::uint64_t out = 0;
    for (std::uint32_t state = 0; state < topo.num_states(); ++state) {
      if (!topo.output(state)) continue;
      std::uint64_t term = ~0ULL;
      for (int pin = 0; pin < k; ++pin) {
        const std::uint64_t v = words[static_cast<std::size_t>(gate.fanins[pin])];
        term &= ((state >> pin) & 1u) ? v : ~v;
      }
      out |= term;
    }
    words[static_cast<std::size_t>(gate.output)] = out;
  }
  return words;
}

/// The pre-refactor event-driven 2-valued resim: levelized worklist over
/// the pointer API (sinks() vector-of-structs, gate_level() per gate).
class PointerBoolSim {
 public:
  explicit PointerBoolSim(const netlist::Netlist& netlist) : netlist_(&netlist) {
    inputs_.assign(static_cast<std::size_t>(netlist.num_control_points()), false);
    values_ = pointer_simulate(netlist, inputs_);
    level_bucket_.resize(static_cast<std::size_t>(netlist.depth()) + 1);
    gate_epoch_.assign(static_cast<std::size_t>(netlist.num_gates()), 0);
  }

  const std::vector<bool>& values() const { return values_; }

  void set_input(int index, bool value) {
    inputs_[static_cast<std::size_t>(index)] = value;
    const int signal = netlist_->control_points()[static_cast<std::size_t>(index)];
    if (values_[static_cast<std::size_t>(signal)] == value) return;
    values_[static_cast<std::size_t>(signal)] = value;
    ++epoch_;
    enqueue_sinks(signal);
    for (std::size_t level = 0; level < level_bucket_.size(); ++level) {
      std::vector<int>& bucket = level_bucket_[level];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const int g = bucket[i];
        const bool out = netlist_->cell_of(g).topology().output(
            pointer_local_state(*netlist_, values_, g));
        const std::size_t out_signal =
            static_cast<std::size_t>(netlist_->gate(g).output);
        if (values_[out_signal] == out) continue;
        values_[out_signal] = out;
        enqueue_sinks(static_cast<int>(out_signal));
      }
      bucket.clear();
    }
  }

 private:
  void enqueue_sinks(int signal) {
    for (const netlist::Sink& sink : netlist_->sinks(signal)) {
      const std::size_t g = static_cast<std::size_t>(sink.gate);
      if (gate_epoch_[g] == epoch_) continue;
      gate_epoch_[g] = epoch_;
      level_bucket_[static_cast<std::size_t>(netlist_->gate_level(sink.gate))]
          .push_back(sink.gate);
    }
  }

  const netlist::Netlist* netlist_;
  std::vector<bool> values_;
  std::vector<bool> inputs_;
  std::vector<std::vector<int>> level_bucket_;
  std::vector<std::uint64_t> gate_epoch_;
  std::uint64_t epoch_ = 0;
};

/// One flat-vs-pointer kernel comparison on `netlist`; appends a JSON row
/// and returns the flat/pointer speedup. Exits the process on any
/// bit-identity violation.
struct KernelRow {
  std::string kernel;
  double pointer_s = 0.0;
  double flat_s = 0.0;
  double pointer_gps = 0.0;  ///< gate-evals per second
  double flat_gps = 0.0;
  double speedup_x = 0.0;
};

KernelRow bench_full_sim(const netlist::Netlist& netlist, int vectors) {
  Rng rng(77);
  std::vector<std::vector<bool>> inputs(static_cast<std::size_t>(vectors));
  for (auto& v : inputs) v = rng.next_bits(static_cast<std::size_t>(netlist.num_control_points()));

  KernelRow row;
  row.kernel = "full_sim";
  std::size_t checksum_pointer = 0, checksum_flat = 0;
  Timer timer;
  for (const auto& v : inputs) {
    const std::vector<bool> values = pointer_simulate(netlist, v);
    checksum_pointer += static_cast<std::size_t>(values.back());
  }
  row.pointer_s = timer.seconds();
  timer.reset();
  for (const auto& v : inputs) {
    const std::vector<bool> values = sim::simulate(netlist, v);
    checksum_flat += static_cast<std::size_t>(values.back());
  }
  row.flat_s = timer.seconds();
  // Cheap checksum during timing; one full vector compared exactly after.
  if (checksum_pointer != checksum_flat ||
      pointer_simulate(netlist, inputs[0]) != sim::simulate(netlist, inputs[0])) {
    std::fprintf(stderr, "FATAL: full_sim flat/pointer mismatch on %s\n",
                 netlist.name().c_str());
    std::exit(1);
  }
  const double evals = static_cast<double>(netlist.num_gates()) * vectors;
  row.pointer_gps = evals / row.pointer_s;
  row.flat_gps = evals / row.flat_s;
  row.speedup_x = row.pointer_s / row.flat_s;
  return row;
}

KernelRow bench_sim64(const netlist::Netlist& netlist, int sweeps) {
  Rng rng(78);
  std::vector<std::vector<std::uint64_t>> inputs(static_cast<std::size_t>(sweeps));
  for (auto& words : inputs) {
    words.resize(static_cast<std::size_t>(netlist.num_control_points()));
    for (auto& w : words) w = rng.next_u64();
  }

  KernelRow row;
  row.kernel = "sim64";
  std::uint64_t checksum_pointer = 0, checksum_flat = 0;
  Timer timer;
  for (const auto& words : inputs) {
    checksum_pointer ^= pointer_simulate64(netlist, words).back();
  }
  row.pointer_s = timer.seconds();
  timer.reset();
  for (const auto& words : inputs) {
    checksum_flat ^= sim::simulate64(netlist, words).back();
  }
  row.flat_s = timer.seconds();
  if (checksum_pointer != checksum_flat ||
      pointer_simulate64(netlist, inputs[0]) != sim::simulate64(netlist, inputs[0])) {
    std::fprintf(stderr, "FATAL: sim64 flat/pointer mismatch on %s\n",
                 netlist.name().c_str());
    std::exit(1);
  }
  // 64 vectors per sweep.
  const double evals = static_cast<double>(netlist.num_gates()) * sweeps * 64.0;
  row.pointer_gps = evals / row.pointer_s;
  row.flat_gps = evals / row.flat_s;
  row.speedup_x = row.pointer_s / row.flat_s;
  return row;
}

KernelRow bench_incremental(const netlist::Netlist& netlist, int flips) {
  Rng rng(79);
  std::vector<int> indices(static_cast<std::size_t>(flips));
  for (auto& i : indices) {
    i = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(netlist.num_control_points())));
  }

  KernelRow row;
  row.kernel = "incremental";
  PointerBoolSim pointer(netlist);
  std::vector<bool> state(static_cast<std::size_t>(netlist.num_control_points()), false);
  Timer timer;
  for (int i : indices) {
    state[static_cast<std::size_t>(i)] = !state[static_cast<std::size_t>(i)];
    pointer.set_input(i, state[static_cast<std::size_t>(i)]);
  }
  row.pointer_s = timer.seconds();

  sim::IncrementalBoolSim flat(netlist);
  std::fill(state.begin(), state.end(), false);
  timer.reset();
  for (int i : indices) {
    state[static_cast<std::size_t>(i)] = !state[static_cast<std::size_t>(i)];
    flat.set_input(i, state[static_cast<std::size_t>(i)], nullptr);
    flat.commit();  // same steady-state discipline as the leaf evaluator
  }
  row.flat_s = timer.seconds();
  if (pointer.values() != flat.values()) {
    std::fprintf(stderr, "FATAL: incremental flat/pointer mismatch on %s\n",
                 netlist.name().c_str());
    std::exit(1);
  }
  // Same event-driven algorithm on both sides: count flips, not gate-evals
  // (the per-flip cone size is identical by construction).
  row.pointer_gps = flips / row.pointer_s;
  row.flat_gps = flips / row.flat_s;
  row.speedup_x = row.pointer_s / row.flat_s;
  return row;
}

svc::Json kernel_json(const KernelRow& row) {
  svc::Json json = svc::Json::object();
  json.set("kernel", row.kernel);
  json.set("pointer_s", row.pointer_s);
  json.set("flat_s", row.flat_s);
  json.set("pointer_per_s", row.pointer_gps);
  json.set("flat_per_s", row.flat_gps);
  json.set("speedup_x", row.speedup_x);
  return json;
}

std::vector<std::string> preset_list() {
  std::vector<std::string> presets;
  const char* env = std::getenv("SVTOX_SCALE_PRESETS");
  for (auto part : split(env != nullptr ? env : "dag10k,dag100k", ',')) {
    if (!trim(part).empty()) presets.emplace_back(trim(part));
  }
  return presets;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svtox;
  bench::print_header("flat SoA core + hierarchical optimization at scale",
                      "engineering artifact (no paper table)");
  const char* out_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  bench::check_artifact_build_type(out_path);

  const int vectors = bench::env_int("SVTOX_SCALE_VECTORS", 200);
  const int sweeps = bench::env_int("SVTOX_SCALE_WORDS", 100);
  const int flips = bench::env_int("SVTOX_SCALE_FLIPS", 20000);
  const int max_gates = bench::env_int("SVTOX_SCALE_MAX_GATES", 2000);
  const std::vector<std::string> presets = preset_list();

  const auto library = liberty::Library::build(model::TechParams::nominal(), {});

  svc::Json doc = svc::Json::object();
  doc.set("bench", "scale");
  svc::Json context = svc::Json::object();
  context.set("svtox_build_type", bench::build_type());
  context.set("vectors", vectors);
  context.set("word_sweeps", sweeps);
  context.set("flips", flips);
  context.set("partition_max_gates", max_gates);
  doc.set("context", context);

  // --- Flat-vs-pointer kernels -----------------------------------------
  // c6288 (the acceptance circuit) plus the largest preset of the run.
  svc::Json::Array kernel_rows;
  std::vector<std::pair<std::string, netlist::Netlist>> kernel_circuits;
  kernel_circuits.emplace_back("c6288", netlist::make_benchmark("c6288", library));
  if (!presets.empty()) {
    const std::string& largest = presets.back();
    kernel_circuits.emplace_back(largest,
                                 netlist::make_scale_circuit(library, largest));
  }
  for (const auto& [name, circuit] : kernel_circuits) {
    std::printf("kernels on %s (%d gates):\n", name.c_str(), circuit.num_gates());
    for (const KernelRow& row : {bench_full_sim(circuit, vectors),
                                 bench_sim64(circuit, sweeps),
                                 bench_incremental(circuit, flips)}) {
      std::printf("  %-12s pointer %8.4fs  flat %8.4fs  (%.2fx)\n",
                  row.kernel.c_str(), row.pointer_s, row.flat_s, row.speedup_x);
      svc::Json json = kernel_json(row);
      json.set("circuit", name);
      json.set("gates", circuit.num_gates());
      kernel_rows.push_back(std::move(json));
    }
  }
  doc.set("kernels", svc::Json(std::move(kernel_rows)));
  std::printf("\n");

  // --- Hierarchical Heu1 on the scale presets --------------------------
  svc::Json::Array hier_rows;
  for (const std::string& preset : presets) {
    Timer build_timer;
    const netlist::Netlist circuit = netlist::make_scale_circuit(library, preset);
    const double build_s = build_timer.seconds();

    svc::HierOptions options;
    options.partition.max_gates = max_gates;
    options.random_vectors = 64;
    const svc::HierResult hr = svc::optimize_hierarchical(circuit, options);

    const double rss = peak_rss_mib();
    std::printf(
        "hier heu1 %-12s %7d gates  build %6.2fs  solve %7.2fs  "
        "%4d parts (%llu solved, %llu cached)  %10.1f uA  "
        "delay %8.0f / %8.0f ps  peak RSS %7.1f MiB\n",
        preset.c_str(), circuit.num_gates(), build_s, hr.runtime_s,
        hr.partitions, static_cast<unsigned long long>(hr.unique_solves),
        static_cast<unsigned long long>(hr.cache_hits),
        hr.solution.leakage_na / 1e3, hr.solution.delay_ps, hr.constraint_ps,
        rss);
    if (hr.solution.delay_ps > hr.constraint_ps) {
      std::fprintf(stderr, "FATAL: %s violates the global delay constraint\n",
                   preset.c_str());
      return 1;
    }

    svc::Json row = svc::Json::object();
    row.set("preset", preset);
    row.set("gates", circuit.num_gates());
    row.set("build_s", build_s);
    row.set("hier_s", hr.runtime_s);
    row.set("partitions", hr.partitions);
    row.set("levels", hr.levels);
    row.set("unique_solves", static_cast<double>(hr.unique_solves));
    row.set("cache_hits", static_cast<double>(hr.cache_hits));
    row.set("leakage_ua", hr.solution.leakage_na / 1e3);
    row.set("delay_ps", hr.solution.delay_ps);
    row.set("constraint_ps", hr.constraint_ps);
    row.set("repaired_gates", hr.repaired_gates);
    row.set("peak_rss_mib", rss);
    hier_rows.push_back(std::move(row));
  }
  doc.set("hier", svc::Json(std::move(hier_rows)));

  // --- Hierarchical vs flat Heu1 gap on c6288 --------------------------
  {
    const netlist::Netlist& circuit = kernel_circuits[0].second;
    svc::HierOptions options;
    options.partition.max_gates = std::min(max_gates, 400);
    options.random_vectors = 64;
    const svc::HierResult hier = svc::optimize_hierarchical(circuit, options);

    Timer timer;
    const opt::AssignmentProblem problem(circuit, options.penalty_fraction);
    const opt::Solution flat = opt::heuristic1(problem);
    const double flat_s = timer.seconds();
    const double ratio = hier.solution.leakage_na / flat.leakage_na;
    const double gap = 100.0 * (ratio - 1.0);
    std::printf(
        "\ngap on c6288: hier %.3f uA (%.2fs) vs flat heu1 %.3f uA (%.2fs) "
        "-> %+.1f%% (ratio %.4f)\n",
        hier.solution.leakage_na / 1e3, hier.runtime_s, flat.leakage_na / 1e3,
        flat_s, gap, ratio);
    // The quality gate of the boundary-aware sweep + stitch decision:
    // the same assertion `svtox hier --compare-flat --max-gap` enforces.
    const double max_gap = bench::env_double("SVTOX_SCALE_MAX_GAP", 1.10);
    if (ratio > max_gap) {
      std::fprintf(stderr,
                   "FATAL: c6288 hier/flat leakage ratio %.4f exceeds %.4f "
                   "(SVTOX_SCALE_MAX_GAP)\n",
                   ratio, max_gap);
      return 4;
    }

    svc::Json row = svc::Json::object();
    row.set("circuit", "c6288");
    row.set("partition_max_gates", options.partition.max_gates);
    row.set("hier_leakage_ua", hier.solution.leakage_na / 1e3);
    row.set("hier_s", hier.runtime_s);
    row.set("hier_levels", hier.levels);
    row.set("hier_repaired_gates", hier.repaired_gates);
    row.set("flat_leakage_ua", flat.leakage_na / 1e3);
    row.set("flat_s", flat_s);
    row.set("gap_percent", gap);
    row.set("hier_gap_ratio", ratio);
    row.set("max_gap_ratio", max_gap);
    doc.set("gap_vs_flat", row);
  }

  doc.set("peak_rss_mib", peak_rss_mib());

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
