#include "sim/leakage_eval.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/threads.hpp"

namespace svtox::sim {

namespace {

/// Validates `config` against the netlist and library once, returning each
/// gate's leakage table. The per-vector loops then index the tables
/// unchecked: every state a simulator can produce is < num_states, which
/// is exactly the validated table length, so the former per-lookup
/// `.at()` bounds checks were pure overhead on the hottest leakage path.
std::vector<const double*> resolve_leakage_tables(const netlist::Netlist& netlist,
                                                  const CircuitConfig& config,
                                                  const std::string& what) {
  if (config.size() != static_cast<std::size_t>(netlist.num_gates())) {
    throw ContractError(what + ": config size mismatch");
  }
  std::vector<const double*> tables(config.size());
  for (int g = 0; g < netlist.num_gates(); ++g) {
    const GateConfig& gc = config[static_cast<std::size_t>(g)];
    const liberty::LibCell& cell = netlist.cell_of(g);
    if (gc.variant < 0 || gc.variant >= cell.num_variants()) {
      throw ContractError(what + ": variant index out of range");
    }
    const liberty::LibCellVariant& variant = cell.variant(gc.variant);
    const std::size_t num_states = cell.topology().num_states();
    if (variant.leakage_na.size() != num_states) {
      throw ContractError(what + ": leakage table size mismatch");
    }
    const std::vector<int>& perm = gc.mapping.logical_to_physical;
    if (!perm.empty()) {
      if (perm.size() != static_cast<std::size_t>(cell.num_inputs())) {
        throw ContractError(what + ": pin mapping size mismatch");
      }
      for (int p : perm) {
        if (p < 0 || p >= cell.num_inputs()) {
          throw ContractError(what + ": pin mapping entry out of range");
        }
      }
    }
    tables[static_cast<std::size_t>(g)] = variant.leakage_na.data();
  }
  return tables;
}

/// Per-gate leakage tables re-indexed by *logical* local state: the variant
/// lookup and pin-reordering are applied once per (gate, state) here instead
/// of once per (gate, vector) in the Monte-Carlo inner loop.
struct LogicalLeakTables {
  std::vector<double> flat;
  std::vector<std::size_t> offsets;  ///< Per gate, into `flat`.

  const double* gate(int g) const { return flat.data() + offsets[static_cast<std::size_t>(g)]; }
};

LogicalLeakTables resolve_logical_tables(const netlist::Netlist& netlist,
                                         const CircuitConfig& config,
                                         const std::string& what) {
  const std::vector<const double*> tables = resolve_leakage_tables(netlist, config, what);
  LogicalLeakTables logical;
  logical.offsets.resize(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) {
    const GateConfig& gc = config[static_cast<std::size_t>(g)];
    logical.offsets[static_cast<std::size_t>(g)] = logical.flat.size();
    const std::uint32_t num_states = netlist.cell_of(g).topology().num_states();
    for (std::uint32_t s = 0; s < num_states; ++s) {
      logical.flat.push_back(tables[static_cast<std::size_t>(g)][gc.physical_state(s)]);
    }
  }
  return logical;
}

}  // namespace

CircuitConfig fastest_config(const netlist::Netlist& netlist) {
  CircuitConfig config(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) {
    config[static_cast<std::size_t>(g)].variant = netlist.cell_of(g).fastest_variant();
  }
  return config;
}

double circuit_leakage_from_values_na(const netlist::Netlist& netlist,
                                      const CircuitConfig& config,
                                      const std::vector<bool>& signal_values) {
  const std::vector<const double*> tables =
      resolve_leakage_tables(netlist, config, "circuit_leakage");
  const netlist::FlatNetlist& flat = netlist.flat();
  double total = 0.0;
  for (std::uint32_t g = 0; g < flat.num_gates(); ++g) {
    const GateConfig& gc = config[g];
    const std::uint32_t logical = local_state(flat, signal_values, g);
    total += tables[g][gc.physical_state(logical)];
  }
  return total;
}

double circuit_leakage_na(const netlist::Netlist& netlist, const CircuitConfig& config,
                          const std::vector<bool>& input_values) {
  return circuit_leakage_from_values_na(netlist, config,
                                        simulate(netlist, input_values));
}

double circuit_area(const netlist::Netlist& netlist, const CircuitConfig& config) {
  if (config.size() != static_cast<std::size_t>(netlist.num_gates())) {
    throw ContractError("circuit_area: config size mismatch");
  }
  double area = 0.0;
  for (int g = 0; g < netlist.num_gates(); ++g) {
    area += netlist.cell_of(g).variant(config[static_cast<std::size_t>(g)].variant).area;
  }
  return area;
}

MonteCarloResult monte_carlo_leakage(const netlist::Netlist& netlist,
                                     const CircuitConfig& config, int num_vectors,
                                     std::uint64_t seed, SimBackend backend) {
  if (num_vectors < 1) throw ContractError("monte_carlo_leakage: need >= 1 vector");
  const LogicalLeakTables leak =
      resolve_logical_tables(netlist, config, "monte_carlo_leakage");
  const int num_gates = netlist.num_gates();

  Rng rng(seed);
  MonteCarloResult result;
  result.vectors = num_vectors;
  result.min_na = 1e300;
  result.max_na = -1e300;
  double sum = 0.0;

  int remaining = num_vectors;
  std::vector<std::uint64_t> pi_words(static_cast<std::size_t>(netlist.num_control_points()));
  if (backend == SimBackend::kPacked) {
    PackedBoolSim packed(netlist);
    // Flat per-gate plan, built once: pin word indices and the gate's
    // logical-state leak row. Each lane takes exactly one add per gate, in
    // gate index order -- the same FP addition sequence as the scalar
    // per-vector loop, hence bit-identical totals. select_add writes all
    // 64 lanes (tail lanes accumulate junk); only the first `lanes` are
    // ever read.
    const std::vector<simd::SelectGate> plan =
        select_plan(netlist.flat(), [&leak](std::uint32_t g) {
          return leak.gate(static_cast<int>(g));
        });
    alignas(32) double totals[64];
    while (remaining > 0) {
      const int lanes = std::min(remaining, 64);
      for (auto& word : pi_words) word = rng.next_u64();
      const std::vector<std::uint64_t>& words = packed.run(pi_words);
      std::fill(totals, totals + 64, 0.0);
      simd::select_add(totals, words.data(), plan.data(), plan.size());
      for (int lane = 0; lane < lanes; ++lane) {
        sum += totals[lane];
        result.min_na = std::min(result.min_na, totals[lane]);
        result.max_na = std::max(result.max_na, totals[lane]);
      }
      remaining -= lanes;
    }
  } else {
    // Scalar reference: identical Rng word stream, one vector at a time
    // through the single-vector simulator.
    const netlist::FlatNetlist& flat = netlist.flat();
    std::vector<bool> inputs(pi_words.size());
    while (remaining > 0) {
      const int lanes = std::min(remaining, 64);
      for (auto& word : pi_words) word = rng.next_u64();
      for (int lane = 0; lane < lanes; ++lane) {
        for (std::size_t i = 0; i < pi_words.size(); ++i) {
          inputs[i] = ((pi_words[i] >> lane) & 1u) != 0;
        }
        const std::vector<bool> values = simulate(netlist, inputs);
        double total = 0.0;
        for (int g = 0; g < num_gates; ++g) {
          total += leak.gate(g)[local_state(flat, values, static_cast<std::uint32_t>(g))];
        }
        sum += total;
        result.min_na = std::min(result.min_na, total);
        result.max_na = std::max(result.max_na, total);
      }
      remaining -= lanes;
    }
  }
  result.mean_na = sum / num_vectors;
  return result;
}

MonteCarloResult monte_carlo_leakage_parallel(const netlist::Netlist& netlist,
                                              const CircuitConfig& config,
                                              int num_vectors, std::uint64_t seed,
                                              int threads, SimBackend backend) {
  if (num_vectors < 1) throw ContractError("monte_carlo_leakage_parallel: need >= 1 vector");
  constexpr int kChunk = 1024;
  const int num_chunks = (num_vectors + kChunk - 1) / kChunk;
  threads = resolve_thread_count(threads, num_chunks);

  std::vector<MonteCarloResult> partial(static_cast<std::size_t>(num_chunks));
  std::atomic<int> next_chunk{0};
  auto worker = [&] {
    for (;;) {
      const int c = next_chunk.fetch_add(1);
      if (c >= num_chunks) return;
      const int vectors = std::min(kChunk, num_vectors - c * kChunk);
      // Per-chunk seed derived only from (seed, chunk index): the partition
      // -- and hence the estimate -- is independent of the thread count.
      const std::uint64_t chunk_seed =
          seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(c + 1));
      partial[static_cast<std::size_t>(c)] =
          monte_carlo_leakage(netlist, config, vectors, chunk_seed, backend);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  MonteCarloResult result;
  result.vectors = num_vectors;
  result.min_na = 1e300;
  result.max_na = -1e300;
  double sum = 0.0;
  for (const MonteCarloResult& p : partial) {
    sum += p.mean_na * p.vectors;
    result.min_na = std::min(result.min_na, p.min_na);
    result.max_na = std::max(result.max_na, p.max_na);
  }
  result.mean_na = sum / num_vectors;
  return result;
}

}  // namespace svtox::sim
