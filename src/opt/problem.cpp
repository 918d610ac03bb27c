#include "opt/problem.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace svtox::opt {

std::vector<int> transitive_fanout_gate_counts(const netlist::FlatNetlist& flat) {
  const std::vector<std::uint32_t>& cps = flat.control_points();
  std::vector<int> counts(cps.size(), 0);
  // One forward topological pass per 64 control points: reach[s] bit i is
  // set when control point 64w+i reaches signal s. A gate lies in a
  // point's transitive fanout exactly when the point reaches its output,
  // so each gate adds its output's mask to 64 counters at once. The
  // counters are bit-sliced (plane k holds bit k of all 64 counts), which
  // makes one addition a short ripple-carry over words.
  std::vector<std::uint64_t> reach(flat.num_signals());
  std::vector<std::uint64_t> planes;
  for (std::size_t base = 0; base < cps.size(); base += 64) {
    const std::size_t width = std::min<std::size_t>(64, cps.size() - base);
    std::fill(reach.begin(), reach.end(), std::uint64_t{0});
    for (std::size_t i = 0; i < width; ++i) reach[cps[base + i]] |= std::uint64_t{1} << i;
    planes.assign(1, 0);
    for (std::uint32_t g : flat.topo_order()) {
      std::uint64_t mask = 0;
      const std::uint32_t* fanins = flat.fanins(g);
      for (std::uint32_t p = 0; p < flat.fanin_count(g); ++p) mask |= reach[fanins[p]];
      reach[flat.output(g)] = mask;
      for (std::size_t k = 0; mask != 0; ++k) {
        if (k == planes.size()) planes.push_back(0);
        const std::uint64_t carry = planes[k] & mask;
        planes[k] ^= mask;
        mask = carry;
      }
    }
    for (std::size_t i = 0; i < width; ++i) {
      int count = 0;
      for (std::size_t k = 0; k < planes.size(); ++k) {
        count |= static_cast<int>((planes[k] >> i) & 1) << k;
      }
      counts[base + i] = count;
    }
  }
  return counts;
}

AssignmentProblem::AssignmentProblem(const netlist::Netlist& netlist,
                                     double penalty_fraction,
                                     const ProblemOptions& options)
    : netlist_(&netlist),
      flat_(&netlist.flat()),
      penalty_(penalty_fraction),
      options_(options),
      load_slices_(netlist) {
  if (penalty_fraction < 0.0 || penalty_fraction > 1.0) {
    throw ContractError("AssignmentProblem: penalty fraction must be in [0, 1]");
  }
  if (!options_.boundary.points.empty() &&
      options_.boundary.points.size() !=
          static_cast<std::size_t>(netlist.num_control_points())) {
    throw ContractError(
        "AssignmentProblem: boundary timing needs one point per control point");
  }
  budget_ = sta::compute_delay_budget(netlist, options_.boundary);
  constraint_ps_ = budget_.constraint_ps(penalty_fraction);

  // Per-cell caches.
  const liberty::Library& lib = netlist.library();
  cell_cache_.resize(lib.cells().size());
  for (std::size_t c = 0; c < lib.cells().size(); ++c) {
    const liberty::LibCell& cell = lib.cell_at(static_cast<int>(c));
    CellCache& cache = cell_cache_[c];
    const std::uint32_t num_states = cell.topology().num_states();
    cache.menus.resize(num_states);
    cache.min_leak_by_raw_state.resize(num_states);
    cache.fastest_leak_by_raw_state.resize(num_states);
    if (options_.use_pin_reorder) cache.mapping_by_raw_state.resize(num_states);

    for (std::uint32_t raw = 0; raw < num_states; ++raw) {
      const cellkit::PinMapping mapping = cell.canonicalize(raw);
      const std::uint32_t canon = mapping.canonical_state;
      if (options_.use_pin_reorder) cache.mapping_by_raw_state[raw] = mapping;

      if (options_.use_pin_reorder) {
        // Menu lives at the canonical state: the trade-off points generated
        // for it, sorted ascending by leakage there.
        if (cache.menus[canon].by_leakage.empty()) {
          VariantMenu menu;
          menu.by_leakage = cell.tradeoffs(canon).distinct_versions();
          std::sort(menu.by_leakage.begin(), menu.by_leakage.end(), [&](int a, int b) {
            return cell.leakage_na(a, canon) < cell.leakage_na(b, canon);
          });
          cache.menus[canon] = std::move(menu);
        }
      } else {
        // Ablation: no rewiring, so every library version competes at the
        // raw state and the menu is indexed by the raw state itself.
        VariantMenu menu;
        for (int v = 0; v < cell.num_variants(); ++v) menu.by_leakage.push_back(v);
        std::sort(menu.by_leakage.begin(), menu.by_leakage.end(), [&](int a, int b) {
          return cell.leakage_na(a, raw) < cell.leakage_na(b, raw);
        });
        cache.menus[raw] = std::move(menu);
      }

      const std::uint32_t menu_state = options_.use_pin_reorder ? canon : raw;
      double min_leak = 1e300;
      for (int v : cache.menus[menu_state].by_leakage) {
        min_leak = std::min(min_leak, cell.leakage_na(v, menu_state));
      }
      cache.min_leak_by_raw_state[raw] = min_leak;
      // The fastest-version leakage is evaluated at the *raw* state: the
      // state-only baseline does not reorder pins, while min_leak (the
      // proposed method's bound) gets the canonical state's reorder benefit.
      cache.fastest_leak_by_raw_state[raw] =
          cell.leakage_na(cell.fastest_variant(), raw);
    }
  }

  // Input ordering: descending transitive-fanout gate count.
  const std::vector<int> cone_size = transitive_fanout_gate_counts(*flat_);
  input_order_.resize(static_cast<std::size_t>(netlist.num_control_points()));
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    input_order_[static_cast<std::size_t>(i)] = i;
  }
  std::stable_sort(input_order_.begin(), input_order_.end(), [&](int a, int b) {
    return cone_size[static_cast<std::size_t>(a)] > cone_size[static_cast<std::size_t>(b)];
  });
}

// The per-gate lookups below sit inside the bound subset walks and leaf
// refresh loops -- the hottest scalar code in the search. They index the
// flat cell array and the per-cell tables unchecked (debug asserts only):
// the constructor sized every table to the cell's num_states, and every
// raw state a simulator can produce is below that.
const VariantMenu& AssignmentProblem::menu(int gate, std::uint32_t canonical_state) const {
  const CellCache& cache = cell_cache_[flat_->cell_index(static_cast<std::uint32_t>(gate))];
  assert(canonical_state < cache.menus.size());
  const VariantMenu& menu = cache.menus[canonical_state];
  if (menu.by_leakage.empty()) {
    throw ContractError("AssignmentProblem::menu: state is not canonical");
  }
  return menu;
}

const cellkit::PinMapping& AssignmentProblem::pin_mapping(int gate,
                                                          std::uint32_t raw_state) const {
  if (!options_.use_pin_reorder) {
    throw ContractError("AssignmentProblem::pin_mapping: pin reordering disabled");
  }
  const CellCache& cache = cell_cache_[flat_->cell_index(static_cast<std::uint32_t>(gate))];
  assert(raw_state < cache.mapping_by_raw_state.size());
  return cache.mapping_by_raw_state[raw_state];
}

double AssignmentProblem::min_gate_leak_na(int gate, std::uint32_t raw_state) const {
  const CellCache& cache = cell_cache_[flat_->cell_index(static_cast<std::uint32_t>(gate))];
  assert(raw_state < cache.min_leak_by_raw_state.size());
  return cache.min_leak_by_raw_state[raw_state];
}

double AssignmentProblem::fastest_gate_leak_na(int gate, std::uint32_t raw_state) const {
  const CellCache& cache = cell_cache_[flat_->cell_index(static_cast<std::uint32_t>(gate))];
  assert(raw_state < cache.fastest_leak_by_raw_state.size());
  return cache.fastest_leak_by_raw_state[raw_state];
}

double AssignmentProblem::min_gate_leak_over_na(
    int gate, const std::vector<std::uint32_t>& raw_states) const {
  double best = 1e300;
  for (std::uint32_t s : raw_states) best = std::min(best, min_gate_leak_na(gate, s));
  return best;
}

}  // namespace svtox::opt
