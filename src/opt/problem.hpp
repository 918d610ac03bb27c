// Shared context of one optimization run: the delay constraint and
// per-gate lookup caches derived from the library.
#pragma once

#include <cstdint>
#include <vector>

#include "cellkit/state.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace svtox::opt {

/// Per-gate, per-canonical-state variant menu, sorted by leakage.
struct VariantMenu {
  /// Variant indices applicable at this canonical state, ascending by
  /// leakage at that state (the paper's pre-sorted gate-tree edges).
  std::vector<int> by_leakage;
};

/// Per control point (Netlist::control_points() order), the number of
/// distinct gates in its transitive fanout: the key of input_order().
std::vector<int> transitive_fanout_gate_counts(const netlist::FlatNetlist& flat);

/// Knobs beyond the delay penalty; defaults reproduce the paper's method.
struct ProblemOptions {
  /// Combined pin reordering (paper Sec. 3, Fig. 2(d)/(e)). When disabled
  /// -- an ablation of one of the paper's ingredients -- gates keep their
  /// wired pin order, variants are evaluated at the raw local state, and
  /// every library version is on the menu (sorted by leakage at that raw
  /// state).
  bool use_pin_reorder = true;
  /// Measured upstream arrival/slew at every control point (empty =
  /// defaults). The hierarchical flow sets this on cone problems so the
  /// delay budget and every leaf's timing see the arrivals the cone's
  /// boundary inputs have in the enclosing circuit, instead of the
  /// zero-arrival relaxation the global verify would then have to repair.
  sta::BoundaryTiming boundary;
};

/// Immutable problem description + caches. Construct once per (netlist,
/// penalty) pair and share across heuristics.
class AssignmentProblem {
 public:
  /// `penalty_fraction` in [0, 1]: 0.05 is the paper's 5% column.
  AssignmentProblem(const netlist::Netlist& netlist, double penalty_fraction,
                    const ProblemOptions& options = {});

  const netlist::Netlist& netlist() const { return *netlist_; }
  const sta::DelayBudget& budget() const { return budget_; }
  double constraint_ps() const { return constraint_ps_; }
  double penalty_fraction() const { return penalty_; }
  bool use_pin_reorder() const { return options_.use_pin_reorder; }
  /// The boundary seeds this problem was built with (empty = defaults).
  /// Evaluators constructing their own TimingState must apply these so
  /// every delay they measure is consistent with the budget above.
  const sta::BoundaryTiming& boundary() const { return options_.boundary; }

  /// The sorted variant menu for `gate`. With pin reordering (default) the
  /// state must be *canonical*; with reordering disabled it is the raw
  /// local state and every state has a menu.
  const VariantMenu& menu(int gate, std::uint32_t canonical_state) const;

  /// Memoized `cellkit::canonicalize` of `gate`'s cell at a raw local
  /// state. Libraries are tiny (states <= 2^k per cell), so every mapping
  /// is precomputed once here and no leaf evaluation ever canonicalizes in
  /// its hot loop. Only valid with pin reordering enabled.
  const cellkit::PinMapping& pin_mapping(int gate, std::uint32_t raw_state) const;

  /// Lower bound on `gate`'s leakage at a raw local state: the minimum over
  /// its menu at the canonicalized state, ignoring delay (admissible).
  double min_gate_leak_na(int gate, std::uint32_t raw_state) const;

  /// Leakage of `gate`'s fastest version at a raw local state, with no pin
  /// reordering (the state-only baseline's per-gate cost).
  double fastest_gate_leak_na(int gate, std::uint32_t raw_state) const;

  /// Lower bound on `gate`'s leakage over a set of compatible raw states.
  double min_gate_leak_over_na(int gate,
                               const std::vector<std::uint32_t>& raw_states) const;

  /// Primary inputs ordered for the state tree: descending transitive
  /// fanout (influential inputs first), which makes early branching
  /// decisions matter most (paper Sec. 5's branch ordering).
  const std::vector<int>& input_order() const { return input_order_; }

  /// Load-sliced NLDM tables of the netlist, built once here and shared
  /// (read-only) by every amortized leaf evaluator: attached to a
  /// TimingState they make incremental re-timing skip the 2-D lookups with
  /// bit-identical results (sta::LoadSlicedTables).
  const sta::LoadSlicedTables& load_slices() const { return load_slices_; }

 private:
  const netlist::Netlist* netlist_;
  const netlist::FlatNetlist* flat_;  ///< Hot per-gate lookups read this.
  sta::DelayBudget budget_;
  double constraint_ps_;
  double penalty_;
  ProblemOptions options_;

  // Caches are per library cell (shared by every gate of that cell).
  struct CellCache {
    // menus[state] is only populated for canonical states.
    std::vector<VariantMenu> menus;
    std::vector<double> min_leak_by_raw_state;
    std::vector<double> fastest_leak_by_raw_state;
    // Indexed by raw state; only populated with pin reordering enabled.
    std::vector<cellkit::PinMapping> mapping_by_raw_state;
  };
  std::vector<CellCache> cell_cache_;  ///< Indexed by library cell index.
  std::vector<int> input_order_;
  sta::LoadSlicedTables load_slices_;
};

}  // namespace svtox::opt
