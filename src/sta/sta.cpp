#include "sta/sta.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace svtox::sta {

namespace {

constexpr double kEpsPs = 1e-9;

SignalTiming evaluate_gate(const netlist::Netlist& netlist, const sim::CircuitConfig& config,
                           int gate, const SignalTiming* sig,
                           const std::vector<double>& load_ff,
                           const LoadSlicedTables* slices, double delay_scale) {
  const netlist::FlatNetlist& flat = netlist.flat();
  const std::uint32_t* fanins = flat.fanins(static_cast<std::uint32_t>(gate));
  const std::uint32_t num_pins = flat.fanin_count(static_cast<std::uint32_t>(gate));
  const sim::GateConfig& gc = config[static_cast<std::size_t>(gate)];

  SignalTiming t;
  t.at_rise = -1e300;
  t.at_fall = -1e300;

  if (slices != nullptr) {
    // Sliced path (incremental updates only, delay_scale == 1): the rows
    // bake in the gate's output load, so every branch below returns the
    // same bits as the 2-D lookups. Each input edge locates its slew
    // segment once and reuses (lo, t) for the delay row and, when that
    // edge wins, the slew row.
    const std::size_t knots = slices->knots();
    const double* axis = slices->slew_axis();
    const double* variant_rows = slices->arc_rows(gate, gc.variant, 0);
    const std::size_t arc_stride = LoadSlicedTables::kRowsPerArc * knots;
    const std::vector<int>& map = gc.mapping.logical_to_physical;
    for (std::uint32_t pin = 0; pin < num_pins; ++pin) {
      const SignalTiming& in = sig[fanins[pin]];
      const double* rows =
          variant_rows +
          (map.empty() ? pin : static_cast<std::size_t>(map[pin])) * arc_stride;

      // Inverting cell: output rise comes from input fall.
      const liberty::AxisSegment fall_in = liberty::locate_segment(axis, knots, in.slew_fall);
      const double cand_rise =
          in.at_fall +
          liberty::interpolate(rows + LoadSlicedTables::kDelayRise * knots, knots, fall_in);
      if (cand_rise > t.at_rise) {
        t.at_rise = cand_rise;
        t.slew_rise =
            liberty::interpolate(rows + LoadSlicedTables::kSlewRise * knots, knots, fall_in);
      }

      const liberty::AxisSegment rise_in = liberty::locate_segment(axis, knots, in.slew_rise);
      const double cand_fall =
          in.at_rise +
          liberty::interpolate(rows + LoadSlicedTables::kDelayFall * knots, knots, rise_in);
      if (cand_fall > t.at_fall) {
        t.at_fall = cand_fall;
        t.slew_fall =
            liberty::interpolate(rows + LoadSlicedTables::kSlewFall * knots, knots, rise_in);
      }
    }
    return t;
  }

  const liberty::LibCell& cell =
      netlist.library().cell_at(static_cast<int>(flat.cell_index(static_cast<std::uint32_t>(gate))));
  const liberty::LibCellVariant& variant = cell.variant(gc.variant);
  const double out_load = load_ff[flat.output(static_cast<std::uint32_t>(gate))];
  for (std::uint32_t pin = 0; pin < num_pins; ++pin) {
    const SignalTiming& in = sig[fanins[pin]];
    const std::uint32_t phys = gc.mapping.logical_to_physical.empty()
                                   ? pin
                                   : static_cast<std::uint32_t>(
                                         gc.mapping.logical_to_physical[pin]);
    assert(phys < variant.pins.size());
    const liberty::PinTiming& timing = variant.pins[phys];

    // Inverting cell: output rise comes from input fall.
    const double cand_rise =
        in.at_fall + delay_scale * timing.delay_rise.lookup(in.slew_fall, out_load);
    if (cand_rise > t.at_rise) {
      t.at_rise = cand_rise;
      t.slew_rise = delay_scale * timing.slew_rise.lookup(in.slew_fall, out_load);
    }

    const double cand_fall =
        in.at_rise + delay_scale * timing.delay_fall.lookup(in.slew_rise, out_load);
    if (cand_fall > t.at_fall) {
      t.at_fall = cand_fall;
      t.slew_fall = delay_scale * timing.slew_fall.lookup(in.slew_rise, out_load);
    }
  }
  return t;
}

/// Lower bound of one slice row over every slew >= `min_slew`, with `seg`
/// = the segment of `min_slew`. The row is piecewise linear in the slew
/// with linear extrapolation from its end segments: nondecreasing knots
/// make the exact lookup at `min_slew` the bound; otherwise the knot
/// minimum bounds it unless an extrapolation tail falls away outward,
/// which makes the row unbounded below (-1e300).
double row_lower_bound(const double* row, std::size_t knots, liberty::AxisSegment seg) {
  bool nondecreasing = true;
  double knot_min = row[0];
  for (std::size_t i = 1; i < knots; ++i) {
    nondecreasing = nondecreasing && row[i] >= row[i - 1];
    knot_min = std::min(knot_min, row[i]);
  }
  if (nondecreasing) return liberty::interpolate(row, knots, seg);
  if (row[1] > row[0] || row[knots - 1] < row[knots - 2]) return -1e300;
  return knot_min;
}

}  // namespace

LoadSlicedTables::LoadSlicedTables(const netlist::Netlist& netlist) {
  if (!netlist.finalized()) {
    throw ContractError("LoadSlicedTables: netlist not finalized");
  }
  gates_.resize(static_cast<std::size_t>(netlist.num_gates()));
  // Instances of the same cell driving the same load are indistinguishable
  // to the tables; dedup on (cell, load bit pattern).
  std::map<std::pair<const liberty::LibCell*, std::uint64_t>, GateRef> dedup;
  for (int g = 0; g < netlist.num_gates(); ++g) {
    const liberty::LibCell& cell = netlist.cell_of(g);
    const double load = netlist.signal_load_ff(netlist.gate(g).output);
    const auto [it, inserted] =
        dedup.try_emplace({&cell, std::bit_cast<std::uint64_t>(load)}, GateRef{});
    if (inserted) {
      const std::size_t pins =
          cell.variants().empty() ? 0 : cell.variants().front().pins.size();
      GateRef& ref = it->second;
      ref.offset = data_.size();
      ref.pins = static_cast<std::uint32_t>(pins);
      ref.arcs = static_cast<std::uint32_t>(cell.variants().size() * pins);
      for (const liberty::LibCellVariant& variant : cell.variants()) {
        if (variant.pins.size() != pins) {
          throw ContractError("LoadSlicedTables: ragged pin count across variants");
        }
        for (const liberty::PinTiming& pin : variant.pins) {
          for (const liberty::NldmTable* table :
               {&pin.delay_rise, &pin.slew_rise, &pin.delay_fall, &pin.slew_fall}) {
            if (slew_axis_.empty()) {
              slew_axis_ = table->slew_axis_ps();
            } else if (table->slew_axis_ps() != slew_axis_) {
              throw ContractError("LoadSlicedTables: tables do not share one slew axis");
            }
            data_.resize(data_.size() + slew_axis_.size());
            table->reduce_to_load(load, data_.data() + data_.size() - slew_axis_.size());
          }
        }
      }
    }
    gates_[static_cast<std::size_t>(g)] = it->second;
  }
}

std::vector<double> downstream_delay_lower_bounds_ps(const netlist::Netlist& netlist,
                                                     const LoadSlicedTables& slices,
                                                     const BoundaryTiming& boundary) {
  if (!netlist.finalized()) {
    throw ContractError("downstream_delay_lower_bounds_ps: netlist not finalized");
  }
  if (!boundary.points.empty() &&
      boundary.points.size() != static_cast<std::size_t>(netlist.num_control_points())) {
    throw ContractError("downstream_delay_lower_bounds_ps: one point per control point");
  }
  const int num_signals = netlist.num_signals();
  const std::size_t knots = slices.knots();
  const double* axis = slices.slew_axis();

  // Forward pass: min_slew[s] lower-bounds the slew of signal `s` under
  // EVERY configuration. Control points get exactly the slew analyze()
  // seeds them with, whatever the config; a gate's output slew is some
  // slew row's lookup at the winning input's slew, which (for
  // nondecreasing rows) is at least the lookup at that input's bound -- so
  // the minimum over arcs and both edges at the minimum fanin bound covers
  // whichever combination the configuration realizes.
  std::vector<double> min_slew(static_cast<std::size_t>(num_signals), 0.0);
  const double pi_slew = netlist.library().tech().default_pi_slew_ps;
  const std::vector<int>& cps = netlist.control_points();
  for (std::size_t i = 0; i < cps.size(); ++i) {
    const double b = boundary.points.empty() ? 0.0 : boundary.points[i].slew_ps;
    min_slew[static_cast<std::size_t>(cps[i])] = b > 0.0 ? b : pi_slew;
  }

  const std::vector<int>& order = netlist.topological_order();
  for (int g : order) {
    const netlist::Gate& gate = netlist.gate(g);
    double in_lb = 1e300;
    for (int fanin : gate.fanins) {
      in_lb = std::min(in_lb, min_slew[static_cast<std::size_t>(fanin)]);
    }
    const liberty::AxisSegment seg = liberty::locate_segment(axis, knots, in_lb);
    double out_lb = 1e300;
    for (std::size_t arc = 0; arc < slices.arcs(g); ++arc) {
      const double* rows = slices.arc_rows(g, arc);
      for (std::size_t row : {LoadSlicedTables::kSlewRise, LoadSlicedTables::kSlewFall}) {
        out_lb = std::min(out_lb, row_lower_bound(rows + row * knots, knots, seg));
      }
    }
    min_slew[static_cast<std::size_t>(gate.output)] = std::max(out_lb, -1e300);
  }

  // Backward pass: reverse-topological max-accumulation. The eventual
  // arrival at an observe point is at least the arrival at any signal `f`
  // plus the stage delays along ANY single downstream path (STA arrivals
  // are maxima over inputs), so taking the best-bounded path is sound:
  // every stage contributes the minimum of its delay rows over arcs and
  // both edges, bounded from the entry signal's minimum slew.
  std::vector<double> bound(static_cast<std::size_t>(num_signals), -1e300);
  for (int s : netlist.observe_points()) bound[static_cast<std::size_t>(s)] = 0.0;

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const netlist::Gate& gate = netlist.gate(*it);
    const double out_bound = bound[static_cast<std::size_t>(gate.output)];
    if (out_bound == -1e300) continue;

    for (int fanin : gate.fanins) {
      const liberty::AxisSegment seg =
          liberty::locate_segment(axis, knots, min_slew[static_cast<std::size_t>(fanin)]);
      double stage_lb = 1e300;
      for (std::size_t arc = 0; arc < slices.arcs(*it); ++arc) {
        const double* rows = slices.arc_rows(*it, arc);
        for (std::size_t row : {LoadSlicedTables::kDelayRise, LoadSlicedTables::kDelayFall}) {
          stage_lb = std::min(stage_lb, row_lower_bound(rows + row * knots, knots, seg));
        }
      }
      if (stage_lb == -1e300) continue;  // degenerate rows: no usable bound
      bound[static_cast<std::size_t>(fanin)] =
          std::max(bound[static_cast<std::size_t>(fanin)], stage_lb + out_bound);
    }
  }
  return bound;
}

TimingState::TimingState(const netlist::Netlist& netlist)
    : netlist_(&netlist), flat_(nullptr) {
  if (!netlist.finalized()) throw ContractError("TimingState: netlist not finalized");
  flat_ = &netlist.flat();
  const int n = netlist.num_signals();
  sig_.assign(static_cast<std::size_t>(n), SignalTiming{});
  load_ff_.resize(n);
  for (int s = 0; s < n; ++s) load_ff_[static_cast<std::size_t>(s)] = netlist.signal_load_ff(s);
  topo_rank_.assign(netlist.num_gates(), 0);
  gate_out_.resize(static_cast<std::size_t>(netlist.num_gates()));
  for (int g = 0; g < netlist.num_gates(); ++g) {
    gate_out_[static_cast<std::size_t>(g)] = netlist.gate(g).output;
  }
  const std::vector<int>& order = netlist.topological_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_rank_[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  sink_offset_.resize(static_cast<std::size_t>(n) + 1);
  sink_offset_[0] = 0;
  for (int s = 0; s < n; ++s) {
    const std::vector<netlist::Sink>& sinks = netlist.sinks(s);
    for (const netlist::Sink& sink : sinks) {
      sink_rank_.push_back(
          static_cast<std::uint32_t>(topo_rank_[static_cast<std::size_t>(sink.gate)]));
    }
    sink_offset_[static_cast<std::size_t>(s) + 1] =
        static_cast<std::uint32_t>(sink_rank_.size());
  }

  obs_signals_.assign(netlist.observe_points().begin(), netlist.observe_points().end());
  std::sort(obs_signals_.begin(), obs_signals_.end());
  obs_signals_.erase(std::unique(obs_signals_.begin(), obs_signals_.end()), obs_signals_.end());
  obs_block_.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < obs_signals_.size(); ++i) {
    obs_block_[obs_signals_[i]] = static_cast<std::int32_t>(i >> 6);
  }
  block_max_.assign((obs_signals_.size() + 63) / 64, 0.0);
  dirty_blocks_.assign((block_max_.size() + 63) / 64, 0);
  mark_all_dirty();
}

void TimingState::set_boundary(const BoundaryTiming& boundary) {
  if (!boundary.points.empty() &&
      boundary.points.size() !=
          static_cast<std::size_t>(netlist_->num_control_points())) {
    throw ContractError("TimingState::set_boundary: one point per control point");
  }
  boundary_ = boundary;
}

double TimingState::analyze(const sim::CircuitConfig& config, double delay_scale) {
  if (config.size() != static_cast<std::size_t>(netlist_->num_gates())) {
    throw ContractError("TimingState::analyze: config size mismatch");
  }
  const double pi_slew = netlist_->library().tech().default_pi_slew_ps;
  if (boundary_.points.empty()) {
    for (std::uint32_t s : flat_->control_points()) {
      sig_[s] = {0.0, 0.0, pi_slew, pi_slew};
    }
  } else {
    const std::vector<std::uint32_t>& cps = flat_->control_points();
    for (std::size_t i = 0; i < cps.size(); ++i) {
      const BoundaryTiming::Point& b = boundary_.points[i];
      const double slew = b.slew_ps > 0.0 ? b.slew_ps : pi_slew;
      sig_[cps[i]] = {b.arrival_ps, b.arrival_ps, slew, slew};
    }
  }
  for (std::uint32_t g : flat_->topo_order()) {
    sig_[flat_->output(g)] = evaluate_gate(*netlist_, config, static_cast<int>(g),
                                           sig_.data(), load_ff_, nullptr, delay_scale);
  }
  mark_all_dirty();
  return circuit_delay_ps();
}

bool TimingState::recompute_gate(const sim::CircuitConfig& config, int gate,
                                 TimingUndo* undo) {
  const SignalTiming t =
      evaluate_gate(*netlist_, config, gate, sig_.data(), load_ff_, slices_, 1.0);
  const std::size_t out = static_cast<std::size_t>(gate_out_[static_cast<std::size_t>(gate)]);
  SignalTiming& cur = sig_[out];
  if (std::abs(t.at_rise - cur.at_rise) < kEpsPs &&
      std::abs(t.at_fall - cur.at_fall) < kEpsPs &&
      std::abs(t.slew_rise - cur.slew_rise) < kEpsPs &&
      std::abs(t.slew_fall - cur.slew_fall) < kEpsPs) {
    return false;
  }
  if (undo != nullptr) {
    undo->entries.push_back({static_cast<int>(out), cur});
  }
  cur = t;
  return true;
}

double TimingState::update_after_gate_change(const sim::CircuitConfig& config, int gate,
                                             TimingUndo* undo) {
  return propagate(config, gate, nullptr, 0.0, undo);
}

double TimingState::update_after_gate_change_bounded(
    const sim::CircuitConfig& config, int gate,
    const std::vector<double>& downstream_lb_ps, double ceiling_ps,
    TimingUndo* undo) {
  return propagate(config, gate, downstream_lb_ps.data(), ceiling_ps, undo);
}

double TimingState::propagate(const sim::CircuitConfig& config, int gate,
                              const double* downstream_lb_ps, double ceiling_ps,
                              TimingUndo* undo) {
  // Margin between the abort test and the caller's feasibility test. The
  // bound chain is exact in real arithmetic; the margin only has to absorb
  // double rounding across a few thousand adds/maxes (~1e-10 ps on
  // ps-scale values), so 1e-3 ps is vastly conservative while still far
  // below any meaningful delay difference. Trials violating the ceiling by
  // less than the margin simply fall through to the full propagation.
  constexpr double kAbortMarginPs = 1e-3;

  // Topo ranks are a permutation of the gates, so visiting pending ranks
  // in ascending order re-evaluates each affected gate once, after all its
  // fanins settled. Pending ranks live in a bitmap (member scratch -- this
  // runs thousands of times per leaf): pop = clear the lowest set bit at or
  // after the cursor, push = set a bit, which also dedups for free. Every
  // sink's rank exceeds its driver's, so pushes always land at or ahead of
  // the cursor word and nothing is ever missed; the scan stops at the
  // highest word a push reached, so a scan costs ~(cone's rank range)/64
  // loads.
  const std::vector<int>& rank_to_gate = netlist_->topological_order();
  const std::size_t num_words =
      (static_cast<std::size_t>(netlist_->num_gates()) + 63) / 64;
  if (pending_bits_.size() != num_words) pending_bits_.assign(num_words, 0);
  const std::size_t first_entry = undo != nullptr ? undo->entries.size() : 0;

  const std::uint32_t start_rank =
      static_cast<std::uint32_t>(topo_rank_[static_cast<std::size_t>(gate)]);
  std::size_t word = start_rank >> 6;
  std::size_t last_word = word;
  pending_bits_[word] |= std::uint64_t{1} << (start_rank & 63);

  while (word <= last_word) {
    const std::uint64_t bits = pending_bits_[word];
    if (bits == 0) {
      ++word;
      continue;
    }
    pending_bits_[word] = bits & (bits - 1);  // clear lowest set bit
    const std::size_t rank = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    const int g = rank_to_gate[rank];
    if (!recompute_gate(config, g, undo)) continue;
    const std::size_t out = static_cast<std::size_t>(gate_out_[static_cast<std::size_t>(g)]);
    // `g` popped with all fanins settled, so its arrival is final for this
    // update; adding the optimistic downstream remainder lower-bounds the
    // eventual circuit delay.
    if (downstream_lb_ps != nullptr &&
        std::max(sig_[out].at_rise, sig_[out].at_fall) + downstream_lb_ps[out] >
            ceiling_ps + kAbortMarginPs) {
      // Unvisited pending ranks all sit in [word, last_word].
      std::fill(pending_bits_.begin() + static_cast<std::ptrdiff_t>(word),
                pending_bits_.begin() + static_cast<std::ptrdiff_t>(last_word) + 1,
                std::uint64_t{0});
      mark_all_dirty();
      return 1e300;
    }
    for (std::uint32_t i = sink_offset_[out]; i < sink_offset_[out + 1]; ++i) {
      const std::uint32_t r = sink_rank_[i];
      pending_bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
      last_word = std::max<std::size_t>(last_word, r >> 6);
    }
  }
  // Dirty blocks come from the undo entries this update appended, not from
  // a hook in recompute_gate, which would tax every re-evaluation.
  if (undo != nullptr) {
    mark_dirty(*undo, first_entry);
  } else {
    mark_all_dirty();
  }
  return circuit_delay_ps();
}

void TimingState::mark_dirty(const TimingUndo& undo, std::size_t first) {
  for (std::size_t i = first; i < undo.entries.size(); ++i) {
    const std::int32_t block = obs_block_[static_cast<std::size_t>(undo.entries[i].signal)];
    if (block >= 0) {
      dirty_blocks_[static_cast<std::size_t>(block) >> 6] |= std::uint64_t{1} << (block & 63);
    }
  }
}

void TimingState::mark_all_dirty() {
  std::fill(dirty_blocks_.begin(), dirty_blocks_.end(), ~std::uint64_t{0});
  // Keep bits past the last block clear: circuit_delay_ps() visits set bits.
  if (const std::size_t tail = block_max_.size() & 63; tail != 0) {
    dirty_blocks_.back() = (std::uint64_t{1} << tail) - 1;
  }
}

void TimingState::snapshot(TimingSnapshot& out) const { out.signals = sig_; }

void TimingState::restore(const TimingSnapshot& snap) {
  if (snap.signals.size() != sig_.size()) {
    throw ContractError("TimingState::restore: snapshot size mismatch");
  }
  sig_ = snap.signals;
  mark_all_dirty();
}

void TimingState::revert(const TimingUndo& undo) {
  for (auto it = undo.entries.rbegin(); it != undo.entries.rend(); ++it) {
    sig_[static_cast<std::size_t>(it->signal)] = it->prev;
  }
  mark_dirty(undo, 0);
}

double TimingState::circuit_delay_ps() const {
  for (std::size_t w = 0; w < dirty_blocks_.size(); ++w) {
    for (std::uint64_t bits = dirty_blocks_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t block = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t end = std::min(obs_signals_.size(), (block + 1) << 6);
      double worst = 0.0;
      for (std::size_t i = block << 6; i < end; ++i) {
        const SignalTiming& t = sig_[obs_signals_[i]];
        worst = std::max({worst, t.at_rise, t.at_fall});
      }
      block_max_[block] = worst;
    }
    dirty_blocks_[w] = 0;
  }
  double worst = 0.0;
  for (double m : block_max_) worst = std::max(worst, m);
  return worst;
}

TimingState::Critical TimingState::critical_output() const {
  Critical crit;
  for (int s : netlist_->observe_points()) {
    const SignalTiming& t = sig_[static_cast<std::size_t>(s)];
    if (t.at_rise > crit.arrival_ps) crit = {s, true, t.at_rise};
    if (t.at_fall > crit.arrival_ps) crit = {s, false, t.at_fall};
  }
  return crit;
}

std::vector<int> TimingState::critical_path(const sim::CircuitConfig& config) const {
  std::vector<int> path;
  Critical point = critical_output();
  while (point.signal >= 0 && netlist_->driver(point.signal) >= 0) {
    const int gate = netlist_->driver(point.signal);
    path.push_back(gate);

    // Find the fanin pin whose arrival + delay realizes this output edge.
    const std::uint32_t* fanins = flat_->fanins(static_cast<std::uint32_t>(gate));
    const std::uint32_t num_pins = flat_->fanin_count(static_cast<std::uint32_t>(gate));
    const sim::GateConfig& gc = config[static_cast<std::size_t>(gate)];
    const liberty::LibCellVariant& variant = netlist_->cell_of(gate).variant(gc.variant);
    const double out_load = load_ff_[flat_->output(static_cast<std::uint32_t>(gate))];
    double best = -1e300;
    int best_sig = -1;
    for (std::uint32_t pin = 0; pin < num_pins; ++pin) {
      const int in_sig = static_cast<int>(fanins[pin]);
      const SignalTiming& in = sig_[static_cast<std::size_t>(in_sig)];
      const std::uint32_t phys = gc.mapping.logical_to_physical.empty()
                                     ? pin
                                     : static_cast<std::uint32_t>(
                                           gc.mapping.logical_to_physical[pin]);
      assert(phys < variant.pins.size());
      const liberty::PinTiming& timing = variant.pins[phys];
      double cand;
      if (point.rising) {
        cand = in.at_fall + timing.delay_rise.lookup(in.slew_fall, out_load);
      } else {
        cand = in.at_rise + timing.delay_fall.lookup(in.slew_rise, out_load);
      }
      if (cand > best) {
        best = cand;
        best_sig = in_sig;
      }
    }
    point.signal = best_sig;
    point.rising = !point.rising;  // inverting stage
    point.arrival_ps = best;
  }
  return path;
}

DelayBudget compute_delay_budget(const netlist::Netlist& netlist) {
  return compute_delay_budget(netlist, BoundaryTiming{});
}

DelayBudget compute_delay_budget(const netlist::Netlist& netlist,
                                 const BoundaryTiming& boundary) {
  DelayBudget budget;
  TimingState timing(netlist);
  timing.set_boundary(boundary);
  const sim::CircuitConfig fast = sim::fastest_config(netlist);
  budget.fast_delay_ps = timing.analyze(fast);

  // The paper's 100% reference replaces *every* device with its high-Vt,
  // thick-oxide counterpart -- a cell that deliberately is not part of the
  // swap library. Model it by scaling every stage's drive resistance by the
  // combined corner factor.
  const model::TechParams& tech = netlist.library().tech();
  const double scale =
      model::resistance_factor(tech, model::VtClass::kHigh, model::ToxClass::kThick);

  TimingState slow(netlist);
  slow.set_boundary(boundary);
  budget.slow_delay_ps = slow.analyze(fast, scale);
  return budget;
}

}  // namespace svtox::sta
