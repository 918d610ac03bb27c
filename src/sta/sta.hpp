// Block-based static timing analysis over the characterized library.
//
// All cells in the library are inverting (INV/NAND/NOR/AOI/OAI), so output
// rise is driven by input fall and vice versa. Arrival times and slews
// propagate in topological order through bilinear NLDM lookups; loads come
// from fanout pin capacitances plus wire estimates and are
// variant-independent (Vt/Tox swaps keep the cell footprint, paper Sec. 4).
//
// The optimizer leans on `update_after_gate_change`: an incremental forward
// re-propagation from a single swapped gate with an undo log, which is the
// paper's "incremental computation of the delay ... as the search traverses
// through the gate tree". Both update forms run one propagation loop (the
// bounded form adds an abort test), and neither rescans every observe point
// afterwards: the circuit delay is kept per block of observe points (see
// circuit_delay_ps). With LoadSlicedTables attached, an update reads each
// arc from flat rows pre-reduced to the gate's load and locates the slew
// segment once per input edge; the same rows feed the downstream delay
// bounds of the bounded form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "liberty/nldm.hpp"
#include "netlist/netlist.hpp"
#include "sim/leakage_eval.hpp"

namespace svtox::sta {

/// One signal's timing quadruple. Kept as a single struct (instead of four
/// parallel arrays) so an incremental probe touches one cache line per
/// signal it reads or writes -- the leaf-evaluation hot path is memory
/// bound on these.
struct SignalTiming {
  double at_rise = 0.0, at_fall = 0.0;
  double slew_rise = 0.0, slew_fall = 0.0;
};

/// Undo log of one incremental update; pass back to revert().
struct TimingUndo {
  struct Entry {
    int signal;
    SignalTiming prev;
  };
  std::vector<Entry> entries;
  bool empty() const { return entries.empty(); }
};

/// A full copy of the per-signal timing array, filled by
/// TimingState::snapshot() and reapplied by restore(). Lets a leaf
/// evaluation start from a memcpy of a previously analyzed baseline
/// configuration instead of a from-scratch analyze() -- the values are
/// bit-identical to the analysis the snapshot was taken from.
struct TimingSnapshot {
  std::vector<SignalTiming> signals;
  bool empty() const { return signals.empty(); }
};

/// Load-sliced NLDM tables of a whole netlist, in one flat array.
///
/// A gate instance's output load never changes, so each 2-D (slew, load)
/// table can be reduced to a row over the slew axis once, with exactly the
/// load-axis arithmetic NldmTable::lookup applies per call. Every table of
/// the library shares one slew axis (Library::build and the .svlib reader
/// guarantee it; the constructor checks it and throws ContractError
/// otherwise), so the axis is stored once and any knot count >= 1 works.
///
/// Instances of the same cell driving the same load share one block: a
/// contiguous run of doubles holding, for each (variant, physical pin) in
/// variant-major order, four rows of knots() values each --
/// [delay_rise | slew_rise | delay_fall | slew_fall]. A row interpolated at
/// liberty::locate_segment(slew) returns the SAME BITS as the 2-D lookup
/// at the gate's load. Depends only on the netlist + library; read-only
/// after construction and safe to share across threads.
class LoadSlicedTables {
 public:
  explicit LoadSlicedTables(const netlist::Netlist& netlist);

  /// Offsets of the four rows of one (variant, pin) arc, in rows.
  enum Row : std::size_t { kDelayRise = 0, kSlewRise = 1, kDelayFall = 2, kSlewFall = 3 };
  static constexpr std::size_t kRowsPerArc = 4;

  /// Knots of the shared slew axis (0 only for a netlist without gates).
  std::size_t knots() const { return slew_axis_.size(); }
  const double* slew_axis() const { return slew_axis_.data(); }

  /// Number of (variant, physical pin) arcs of `gate`'s cell.
  std::size_t arcs(int gate) const { return gates_[static_cast<std::size_t>(gate)].arcs; }

  /// The kRowsPerArc rows of arc `arc` (= variant * pins + physical pin) of
  /// `gate`; row r starts at arc_rows(...) + r * knots().
  const double* arc_rows(int gate, std::size_t arc) const {
    const GateRef& ref = gates_[static_cast<std::size_t>(gate)];
    return data_.data() + ref.offset + arc * kRowsPerArc * slew_axis_.size();
  }

  /// The rows of (variant, physical_pin) of `gate`'s cell.
  const double* arc_rows(int gate, int variant, int physical_pin) const {
    const GateRef& ref = gates_[static_cast<std::size_t>(gate)];
    return arc_rows(gate, static_cast<std::size_t>(variant) * ref.pins +
                              static_cast<std::size_t>(physical_pin));
  }

 private:
  struct GateRef {
    std::size_t offset = 0;  ///< First double of the gate's block in data_.
    std::uint32_t pins = 0;  ///< Physical pins per variant.
    std::uint32_t arcs = 0;  ///< Variants x pins.
  };
  std::vector<double> slew_axis_;
  std::vector<GateRef> gates_;  ///< Per gate.
  std::vector<double> data_;    ///< Every (cell, load) block, back to back.
};

/// Measured upstream timing at the control points, used to seed a cone's
/// analysis with the arrival/slew its boundary inputs actually see in the
/// enclosing circuit (instead of the default zero-arrival / library-slew
/// seed). One entry per control point, in Netlist::control_points() order;
/// empty = defaults everywhere. A point with slew_ps <= 0 keeps the
/// library's default primary-input slew.
struct BoundaryTiming {
  struct Point {
    double arrival_ps = 0.0;
    double slew_ps = 0.0;
  };
  std::vector<Point> points;
  bool empty() const { return points.empty(); }
};

/// Mutable timing state of one netlist under a circuit configuration.
/// Single-owner: not safe for concurrent use, not even by readers only,
/// because circuit_delay_ps() refreshes cached block maxima.
class TimingState {
 public:
  explicit TimingState(const netlist::Netlist& netlist);

  /// Full (from-scratch) analysis under `config`. Returns circuit delay
  /// [ps]. `delay_scale` multiplies every stage delay and slew; it models
  /// uniform corner shifts (used for the all-slow budget endpoint).
  double analyze(const sim::CircuitConfig& config, double delay_scale = 1.0);

  /// Seeds every subsequent analyze() with measured control-point
  /// arrivals/slews instead of the zero-arrival default. The seeds are not
  /// scaled by `delay_scale` -- the upstream context is fixed; only this
  /// cone's devices shift with the corner. Pass an empty BoundaryTiming to
  /// restore the defaults; a non-empty one must have exactly one point per
  /// control point. Incremental updates never touch control-point timing,
  /// so the seeds survive update_after_gate_change/revert unchanged.
  void set_boundary(const BoundaryTiming& boundary);

  /// Re-propagates timing after `gate`'s configuration changed, touching
  /// only the affected cone. Appends previous values of every modified
  /// signal to `undo` (if non-null). Returns the new circuit delay [ps].
  double update_after_gate_change(const sim::CircuitConfig& config, int gate,
                                  TimingUndo* undo);

  /// update_after_gate_change with early rejection: `downstream_lb_ps` is a
  /// per-signal lower bound on the remaining combinational delay to any
  /// observe point (see downstream_delay_lower_bounds_ps). As soon as a
  /// finalized arrival plus that bound provably exceeds `ceiling_ps`, the
  /// eventual circuit delay must exceed it too, so the propagation aborts
  /// and returns +infinity (1e300); the caller reverts via `undo` exactly
  /// as after a completed update. When no abort triggers, the result -- and
  /// every touched signal -- is bit-identical to the unbounded update, so
  /// any caller that reverts whenever the returned delay is above
  /// `ceiling_ps` observes identical behavior either way. After an abort
  /// the state is half-propagated: circuit_delay_ps() and the per-signal
  /// queries are valid again once the caller has reverted `undo`.
  double update_after_gate_change_bounded(const sim::CircuitConfig& config, int gate,
                                          const std::vector<double>& downstream_lb_ps,
                                          double ceiling_ps, TimingUndo* undo);

  /// Attaches load-sliced tables (caller-owned, must outlive this state;
  /// pass nullptr to detach). Incremental updates then evaluate gates
  /// through the slice rows, locating the slew segment once per (pin,
  /// input edge) for both the delay and the slew row -- bit-identical
  /// results at a fraction of the 2-D lookup cost. analyze() always uses
  /// the 2-D tables (it takes a delay scale). Every gate-tree search
  /// attaches the problem's shared slices after its analyze().
  void use_load_slices(const LoadSlicedTables* slices) { slices_ = slices; }

  /// Restores the state recorded in `undo` (entries are replayed in
  /// reverse). The caller must revert in LIFO order w.r.t. updates.
  void revert(const TimingUndo& undo);

  /// Copies the per-signal timing arrays into `out` (reusing its capacity).
  void snapshot(TimingSnapshot& out) const;

  /// Reapplies a snapshot taken from this netlist's TimingState; afterwards
  /// every query returns exactly what it returned when the snapshot was
  /// taken.
  void restore(const TimingSnapshot& snap);

  /// Worst arrival over all observe points [ps] (0 when there are none).
  /// The distinct observe points are split into blocks of 64, each with a
  /// cached worst arrival, plus a bitmap of dirty blocks. This call
  /// rescans only the dirty blocks, then takes the max over the block
  /// maxima; max is exact, so the result is bit-identical to one linear
  /// scan. A completed update marks the blocks of the signals its undo
  /// entries record (every block when `undo` is null), revert() marks the
  /// signals it restores, and analyze(), restore() and an aborted bounded
  /// update mark every block.
  double circuit_delay_ps() const;

  double arrival_rise_ps(int signal) const { return sig_.at(signal).at_rise; }
  double arrival_fall_ps(int signal) const { return sig_.at(signal).at_fall; }
  double slew_rise_ps(int signal) const { return sig_.at(signal).slew_rise; }
  double slew_fall_ps(int signal) const { return sig_.at(signal).slew_fall; }

  /// Signal load used by the analysis [fF].
  double load_ff(int signal) const { return load_ff_.at(signal); }

  /// The most critical primary-output signal and its arrival.
  struct Critical {
    int signal = -1;
    bool rising = false;
    double arrival_ps = 0.0;
  };
  Critical critical_output() const;

  /// Gate indices on the critical path, output-first (derived by
  /// backtracking winning arrival edges).
  std::vector<int> critical_path(const sim::CircuitConfig& config) const;

 private:
  /// Recomputes `gate`'s output timing; returns true if anything changed.
  bool recompute_gate(const sim::CircuitConfig& config, int gate, TimingUndo* undo);

  /// The one propagation loop behind both update forms: re-evaluates the
  /// fanout cone of `gate` in ascending topological rank. With a non-null
  /// `downstream_lb_ps` it aborts (returning 1e300) as soon as a settled
  /// arrival plus its bound exceeds `ceiling_ps`; with null it never does.
  double propagate(const sim::CircuitConfig& config, int gate,
                   const double* downstream_lb_ps, double ceiling_ps, TimingUndo* undo);

  /// Marks the block of every observed signal among `undo.entries[first..)`.
  void mark_dirty(const TimingUndo& undo, std::size_t first);
  void mark_all_dirty();

  const netlist::Netlist* netlist_;
  const netlist::FlatNetlist* flat_;  ///< SoA view; hot loops read this.
  const LoadSlicedTables* slices_ = nullptr;  ///< Optional, caller-owned.
  BoundaryTiming boundary_;        ///< Empty = default control-point seeds.
  std::vector<SignalTiming> sig_;  // per signal
  std::vector<double> load_ff_;    // per signal
  std::vector<int> topo_rank_;     // per gate
  std::vector<int> gate_out_;      // per gate: driven signal id
  // Flattened fanout in rank space: the topo ranks of signal s's sink
  // gates are sink_rank_[sink_offset_[s] .. sink_offset_[s+1]). Built once
  // in the constructor; spares the hot loop the per-signal vector (and its
  // bounds-checked .at()) of Netlist::sinks().
  std::vector<std::uint32_t> sink_offset_;  // per signal, +1 sentinel
  std::vector<std::uint32_t> sink_rank_;
  /// Scratch of propagate(): pending topo ranks as a bitmap (bit r = rank
  /// r queued). Both exits leave it all-zero for the next call.
  std::vector<std::uint64_t> pending_bits_;
  // Block-max circuit delay. obs_signals_ holds the distinct observe
  // points in ascending signal id; block b is obs_signals_[64b .. 64b+64).
  // obs_block_[s] is the block of signal s, or -1 when s is not observed.
  // block_max_[b] is block b's worst arrival unless bit b of dirty_blocks_
  // is set; circuit_delay_ps() refreshes the dirty ones, hence mutable.
  std::vector<std::uint32_t> obs_signals_;
  std::vector<std::int32_t> obs_block_;
  mutable std::vector<double> block_max_;
  mutable std::vector<std::uint64_t> dirty_blocks_;
};

/// Per-signal lower bound [ps] on the combinational delay from the signal
/// to any observe point, valid for EVERY variant selection, pin mapping and
/// input slew at or above the forward-propagated minimum slew (each stage
/// contributes the minimum of its delay rows over all variants, physical
/// pins and both edges). Signals that cannot reach an observe point get
/// -1e300, so a bound test against them never triggers. The bounds are read
/// from `slices` (built from `netlist`): a row whose knots are
/// nondecreasing is bounded by its exact lookup at the minimum slew; any
/// other row by its knot minimum, or -1e300 when an extrapolation tail
/// falls away outward. Control points are seeded exactly as analyze()
/// seeds them under `boundary` (its slew where positive, the library's
/// primary-input slew otherwise), so the bound stays sound for cone
/// problems whose boundary slews are sharper than the default. Leaf
/// searches compute it once and use it to reject delay-infeasible variant
/// trials without propagating their full fanout cones
/// (update_after_gate_change_bounded).
std::vector<double> downstream_delay_lower_bounds_ps(const netlist::Netlist& netlist,
                                                     const LoadSlicedTables& slices,
                                                     const BoundaryTiming& boundary);

/// Delay budget arithmetic (paper Sec. 6): penalties are a percentage of
/// the spread between the all-fast delay and the all-slow delay.
struct DelayBudget {
  double fast_delay_ps = 0.0;  ///< All low-Vt / thin-Tox circuit delay.
  double slow_delay_ps = 0.0;  ///< All high-Vt / thick-Tox circuit delay.

  /// The delay constraint for a penalty fraction p in [0, 1]:
  /// fast + p * (slow - fast).
  double constraint_ps(double penalty_fraction) const {
    return fast_delay_ps + penalty_fraction * (slow_delay_ps - fast_delay_ps);
  }
};

/// Computes the budget endpoints for a netlist: the all-fast delay, and the
/// delay with every gate at an all-devices-slow assignment (built as a
/// temporary worst-case configuration over the library's variants by
/// scaling each gate's slowest available version).
DelayBudget compute_delay_budget(const netlist::Netlist& netlist);

/// Budget endpoints with the control points seeded from `boundary` (both
/// the fast and the slow analysis see the same upstream context). With an
/// empty boundary this is exactly compute_delay_budget(netlist).
DelayBudget compute_delay_budget(const netlist::Netlist& netlist,
                                 const BoundaryTiming& boundary);

}  // namespace svtox::sta
