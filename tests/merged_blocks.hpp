// Test netlist of independent blocks: seeded random DAGs concatenated
// into one netlist (signals renamed b<k>_<name>), so the blocks stay
// separate components -- the block-level shape that gives the greedy
// gate descent several lanes and the hierarchical flow several
// independent partitions per level.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "util/strings.hpp"

namespace svtox {

/// One random_dag block of `gates` gates per entry of `depths`, seeded
/// from `seed`, merged into one finalized netlist.
inline netlist::Netlist merged_blocks(const liberty::Library& library,
                                      const std::vector<int>& depths, int gates,
                                      std::uint64_t seed) {
  netlist::Netlist merged("blocks", &library);
  for (std::size_t b = 0; b < depths.size(); ++b) {
    netlist::DagOptions options;
    options.num_inputs = 32;
    options.num_gates = gates;
    options.target_depth = depths[b];
    options.seed = seed + b;
    const netlist::Netlist block =
        netlist::random_dag(library, numbered("dag", static_cast<long long>(b)), options);
    std::string prefix = numbered("b", static_cast<long long>(b));
    prefix += '_';
    std::vector<int> signal(static_cast<std::size_t>(block.num_signals()));
    for (int s = 0; s < block.num_signals(); ++s) {
      signal[static_cast<std::size_t>(s)] =
          merged.add_signal(prefix + block.signal_name(s));
    }
    for (const int input : block.primary_inputs()) {
      merged.mark_input(signal[static_cast<std::size_t>(input)]);
    }
    for (const netlist::Gate& gate : block.gates()) {
      std::vector<int> fanins;
      fanins.reserve(gate.fanins.size());
      for (const int f : gate.fanins) {
        fanins.push_back(signal[static_cast<std::size_t>(f)]);
      }
      merged.add_gate(prefix + gate.name, gate.cell_index, std::move(fanins),
                      signal[static_cast<std::size_t>(gate.output)]);
    }
    for (const int output : block.primary_outputs()) {
      merged.mark_output(signal[static_cast<std::size_t>(output)]);
    }
  }
  merged.finalize();
  return merged;
}

}  // namespace svtox
