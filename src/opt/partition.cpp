#include "opt/partition.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox::opt {

namespace {

/// Union-find over signal ids (path halving + union by size).
class Dsu {
 public:
  explicit Dsu(int n) : parent_(static_cast<std::size_t>(n)), size_(static_cast<std::size_t>(n), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)]) std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

/// Fills boundary_inputs and outputs of every partition from its gate
/// list. `partition_of` maps gate id -> partition index.
void derive_interfaces(const netlist::Netlist& netlist,
                       const std::vector<int>& partition_of,
                       std::vector<Partition>& partitions) {
  std::vector<bool> observed(static_cast<std::size_t>(netlist.num_signals()), false);
  for (int s : netlist.observe_points()) observed[static_cast<std::size_t>(s)] = true;
  // Per-signal marker of the partition that last recorded the signal as a
  // boundary input (epoch trick: no clearing between partitions).
  std::vector<int> seen(static_cast<std::size_t>(netlist.num_signals()), -1);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    Partition& part = partitions[p];
    for (int g : part.gates) {
      for (int f : netlist.gate(g).fanins) {
        const int driver = netlist.driver(f);
        const bool internal =
            driver >= 0 && partition_of[static_cast<std::size_t>(driver)] == static_cast<int>(p);
        if (internal || seen[static_cast<std::size_t>(f)] == static_cast<int>(p)) continue;
        seen[static_cast<std::size_t>(f)] = static_cast<int>(p);
        part.boundary_inputs.push_back(f);
      }
    }
    for (int g : part.gates) {
      const int out = netlist.gate(g).output;
      bool external = observed[static_cast<std::size_t>(out)];
      if (!external) {
        for (const netlist::Sink& sink : netlist.sinks(out)) {
          if (partition_of[static_cast<std::size_t>(sink.gate)] != static_cast<int>(p)) {
            external = true;
            break;
          }
        }
      }
      if (external) part.outputs.push_back(out);
    }
  }
}

/// The .bench function keyword of a library cell, or "" if none.
std::string bench_func(const std::string& cell) {
  if (cell == "INV") return "NOT";
  if (starts_with(cell, "NAND")) return "NAND";
  if (starts_with(cell, "NOR")) return "NOR";
  if (starts_with(cell, "AOI") || starts_with(cell, "OAI")) return cell;
  return "";
}

}  // namespace

std::vector<Partition> partition_netlist(const netlist::Netlist& netlist,
                                         const PartitionOptions& options) {
  if (!netlist.finalized()) throw ContractError("partition_netlist: netlist not finalized");
  if (options.max_gates < 1) throw ContractError("partition_netlist: max_gates must be >= 1");

  // Weakly-connected components over signals; a gate joins its fanins to
  // its output.
  Dsu dsu(netlist.num_signals());
  for (const netlist::Gate& gate : netlist.gates()) {
    for (int f : gate.fanins) dsu.unite(f, gate.output);
  }

  // Component gate lists in global topological order (so each list is
  // itself topologically sorted), components ordered by first appearance.
  std::vector<int> component_slot(static_cast<std::size_t>(netlist.num_signals()), -1);
  std::vector<std::vector<int>> component_gates;
  for (int g : netlist.topological_order()) {
    const int root = dsu.find(netlist.gate(g).output);
    int& slot = component_slot[static_cast<std::size_t>(root)];
    if (slot < 0) {
      slot = static_cast<int>(component_gates.size());
      component_gates.emplace_back();
    }
    component_gates[static_cast<std::size_t>(slot)].push_back(g);
  }

  // Slice every component into runs of at most max_gates.
  std::vector<Partition> partitions;
  std::vector<int> partition_of(static_cast<std::size_t>(netlist.num_gates()), -1);
  const std::size_t budget = static_cast<std::size_t>(options.max_gates);
  for (const std::vector<int>& gates : component_gates) {
    for (std::size_t begin = 0; begin < gates.size(); begin += budget) {
      const std::size_t end = std::min(gates.size(), begin + budget);
      Partition part;
      part.gates.assign(gates.begin() + static_cast<std::ptrdiff_t>(begin),
                        gates.begin() + static_cast<std::ptrdiff_t>(end));
      for (int g : part.gates) {
        partition_of[static_cast<std::size_t>(g)] = static_cast<int>(partitions.size());
      }
      partitions.push_back(std::move(part));
    }
  }

  derive_interfaces(netlist, partition_of, partitions);
  return partitions;
}

std::string canonical_bench_text(const netlist::Netlist& netlist,
                                 const Partition& partition) {
  // Canonical local name per referenced global signal.
  std::vector<std::string> local(static_cast<std::size_t>(netlist.num_signals()));
  for (std::size_t j = 0; j < partition.boundary_inputs.size(); ++j) {
    local[static_cast<std::size_t>(partition.boundary_inputs[j])] =
        numbered("bi", static_cast<long long>(j));
  }
  for (std::size_t k = 0; k < partition.gates.size(); ++k) {
    local[static_cast<std::size_t>(netlist.gate(partition.gates[k]).output)] =
        numbered("n", static_cast<long long>(k));
  }

  std::string out;
  out.reserve(partition.gates.size() * 24);
  for (std::size_t j = 0; j < partition.boundary_inputs.size(); ++j) {
    out += "INPUT(bi" + std::to_string(j) + ")\n";
  }
  for (int s : partition.outputs) {
    out += "OUTPUT(" + local[static_cast<std::size_t>(s)] + ")\n";
  }
  for (int g : partition.gates) {
    const netlist::Gate& gate = netlist.gate(g);
    const std::string& cell = netlist.cell_of(g).name();
    const std::string func = bench_func(cell);
    if (func.empty()) {
      throw ContractError("canonical_bench_text: cell '" + cell +
                          "' has no bench primitive equivalent");
    }
    out += local[static_cast<std::size_t>(gate.output)];
    out += " = " + func + "(";
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i) out += ", ";
      const std::string& name = local[static_cast<std::size_t>(gate.fanins[i])];
      if (name.empty()) {
        throw ContractError("canonical_bench_text: fanin neither boundary nor internal");
      }
      out += name;
    }
    out += ")\n";
  }
  return out;
}

void check_partitions(const netlist::Netlist& netlist,
                      const std::vector<Partition>& partitions) {
  std::vector<int> partition_of(static_cast<std::size_t>(netlist.num_gates()), -1);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (int g : partitions[p].gates) {
      if (g < 0 || g >= netlist.num_gates()) {
        throw ContractError("check_partitions: gate id out of range");
      }
      if (partition_of[static_cast<std::size_t>(g)] >= 0) {
        throw ContractError("check_partitions: gate in two partitions");
      }
      partition_of[static_cast<std::size_t>(g)] = static_cast<int>(p);
    }
  }
  for (int g = 0; g < netlist.num_gates(); ++g) {
    if (partition_of[static_cast<std::size_t>(g)] < 0) {
      throw ContractError("check_partitions: gate in no partition");
    }
  }
  // Interfaces match a fresh derivation, and the partition order is
  // topological: boundary inputs come from control points or earlier
  // partitions only.
  std::vector<Partition> fresh(partitions.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) fresh[p].gates = partitions[p].gates;
  derive_interfaces(netlist, partition_of, fresh);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (fresh[p].boundary_inputs != partitions[p].boundary_inputs) {
      throw ContractError("check_partitions: boundary_inputs mismatch");
    }
    if (fresh[p].outputs != partitions[p].outputs) {
      throw ContractError("check_partitions: outputs mismatch");
    }
    for (int s : partitions[p].boundary_inputs) {
      const int driver = netlist.driver(s);
      if (driver < 0) continue;  // control point
      if (partition_of[static_cast<std::size_t>(driver)] >= static_cast<int>(p)) {
        throw ContractError("check_partitions: boundary input from a later partition");
      }
    }
  }
}

}  // namespace svtox::opt
