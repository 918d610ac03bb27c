#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "netlist/generators.hpp"
#include "sim/leakage_eval.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svtox::sta {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

netlist::Netlist inverter_chain(int length) {
  netlist::Netlist n("chain", &lib());
  int prev = n.add_signal("in");
  n.mark_input(prev);
  for (int i = 0; i < length; ++i) {
    const int next = n.add_signal("n" + std::to_string(i));
    n.add_gate("g" + std::to_string(i), "INV", {prev}, next);
    prev = next;
  }
  n.mark_output(prev);
  n.finalize();
  return n;
}

TEST(Sta, ChainDelayGrowsLinearly) {
  std::vector<double> delays;
  for (int len : {2, 4, 8}) {
    const auto n = inverter_chain(len);
    TimingState timing(n);
    delays.push_back(timing.analyze(sim::fastest_config(n)));
  }
  EXPECT_GT(delays[1], delays[0]);
  EXPECT_GT(delays[2], delays[1]);
  // Roughly proportional to length (within 30% of 2x per doubling).
  EXPECT_NEAR(delays[2] / delays[1], 2.0, 0.6);
}

TEST(Sta, ArrivalsMonotoneAlongChain) {
  const auto n = inverter_chain(6);
  TimingState timing(n);
  timing.analyze(sim::fastest_config(n));
  double prev = 0.0;
  for (int g : n.topological_order()) {
    const int out = n.gate(g).output;
    const double arrival =
        std::max(timing.arrival_rise_ps(out), timing.arrival_fall_ps(out));
    EXPECT_GT(arrival, prev);
    prev = arrival;
  }
}

TEST(Sta, SlowerVariantNeverDecreasesDelay) {
  const auto n = netlist::random_circuit(lib(), "sta_r", 12, 80, 31);
  TimingState timing(n);
  sim::CircuitConfig config = sim::fastest_config(n);
  const double base = timing.analyze(config);
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    const int variants = n.cell_of(g).num_variants();
    config[static_cast<std::size_t>(g)].variant =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(variants)));
    TimingState fresh(n);
    EXPECT_GE(fresh.analyze(config), base - 1e-9);
    config[static_cast<std::size_t>(g)].variant = n.cell_of(g).fastest_variant();
  }
}

TEST(Sta, IncrementalMatchesFullReanalysis) {
  // Property: after a random sequence of variant changes, incremental
  // updates leave the exact same state as a from-scratch analysis.
  const auto n = netlist::random_circuit(lib(), "sta_i", 14, 120, 37);
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState incremental(n);
  incremental.analyze(config);

  Rng rng(37);
  for (int step = 0; step < 40; ++step) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    const int variants = n.cell_of(g).num_variants();
    config[static_cast<std::size_t>(g)].variant =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(variants)));
    const double inc_delay = incremental.update_after_gate_change(config, g, nullptr);

    TimingState fresh(n);
    const double full_delay = fresh.analyze(config);
    ASSERT_NEAR(inc_delay, full_delay, 1e-6) << "step " << step;
    for (int s = 0; s < n.num_signals(); ++s) {
      ASSERT_NEAR(incremental.arrival_rise_ps(s), fresh.arrival_rise_ps(s), 1e-6);
      ASSERT_NEAR(incremental.arrival_fall_ps(s), fresh.arrival_fall_ps(s), 1e-6);
      ASSERT_NEAR(incremental.slew_rise_ps(s), fresh.slew_rise_ps(s), 1e-6);
      ASSERT_NEAR(incremental.slew_fall_ps(s), fresh.slew_fall_ps(s), 1e-6);
    }
  }
}

TEST(Sta, UndoRestoresExactState) {
  const auto n = netlist::random_circuit(lib(), "sta_u", 10, 70, 41);
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState timing(n);
  const double base = timing.analyze(config);

  std::vector<double> before_rise(static_cast<std::size_t>(n.num_signals()));
  for (int s = 0; s < n.num_signals(); ++s) before_rise[s] = timing.arrival_rise_ps(s);

  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    const int old = config[static_cast<std::size_t>(g)].variant;
    config[static_cast<std::size_t>(g)].variant =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
    TimingUndo undo;
    timing.update_after_gate_change(config, g, &undo);
    timing.revert(undo);
    config[static_cast<std::size_t>(g)].variant = old;

    EXPECT_NEAR(timing.circuit_delay_ps(), base, 1e-9);
    for (int s = 0; s < n.num_signals(); ++s) {
      ASSERT_NEAR(timing.arrival_rise_ps(s), before_rise[s], 1e-9);
    }
  }
}

TEST(Sta, CriticalPathIsConnectedAndEndsAtInput) {
  const auto n = netlist::random_circuit(lib(), "sta_c", 12, 90, 43);
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState timing(n);
  timing.analyze(config);
  const auto path = timing.critical_path(config);
  ASSERT_FALSE(path.empty());
  // First gate drives the critical output.
  EXPECT_EQ(n.gate(path.front()).output, timing.critical_output().signal);
  // Consecutive path gates are connected fanout -> fanin.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const int upstream_out = n.gate(path[i + 1]).output;
    bool connected = false;
    for (int f : n.gate(path[i]).fanins) connected = connected || f == upstream_out;
    EXPECT_TRUE(connected) << "path position " << i;
  }
  // Path terminates at a primary input.
  const auto& last = n.gate(path.back());
  bool from_pi = false;
  for (int f : last.fanins) from_pi = from_pi || n.driver(f) == -1;
  EXPECT_TRUE(from_pi);
}

/// Every cell of `library` once per fanout in {0, 1, 3, 10, 60}: the
/// instance drives that many INV sinks (fanout 0: it is a primary output
/// itself), so its load spans the characterized load axis and beyond.
netlist::Netlist fanout_fixture(const liberty::Library& library) {
  netlist::Netlist n("fanout", &library);
  std::vector<int> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(n.add_signal("i" + std::to_string(i)));
    n.mark_input(inputs.back());
  }
  int id = 0;
  for (const liberty::LibCell& cell : library.cells()) {
    const std::size_t pins = cell.variants().front().pins.size();
    for (int fanout : {0, 1, 3, 10, 60}) {
      const std::string tag = std::to_string(id++);
      const int out = n.add_signal("o" + tag);
      n.add_gate("g" + tag, cell.name(),
                 std::vector<int>(inputs.begin(),
                                  inputs.begin() + static_cast<std::ptrdiff_t>(pins)),
                 out);
      if (fanout == 0) n.mark_output(out);
      for (int k = 0; k < fanout; ++k) {
        const int sink = n.add_signal("s" + tag + "_" + std::to_string(k));
        n.add_gate("h" + tag + "_" + std::to_string(k), "INV", {out}, sink);
        n.mark_output(sink);
      }
    }
  }
  n.finalize();
  return n;
}

TEST(Sta, LoadSliceBitIdenticalToTableLookup) {
  // The contract of LoadSlicedTables: a row interpolated at the located
  // slew segment returns the SAME BITS as the 2-D table lookup at the
  // gate's load, including extrapolation beyond both ends of the slew
  // axis and loads inside, between and outside the load axis.
  liberty::LibraryOptions narrow_loads;
  narrow_loads.load_axis_ff = {4.0, 9.0, 20.0};  // fanout 0/1 loads fall below
  const liberty::Library narrow =
      liberty::Library::build(model::TechParams::nominal(), narrow_loads);
  Rng rng(59);
  for (const liberty::Library* library : {&lib(), &narrow}) {
    const netlist::Netlist n = fanout_fixture(*library);
    const LoadSlicedTables slices(n);
    const std::size_t knots = slices.knots();
    ASSERT_EQ(knots, library->options().slew_axis_ps.size());
    for (int g = 0; g < n.num_gates(); ++g) {
      const double load = n.signal_load_ff(n.gate(g).output);
      const liberty::LibCell& cell = n.cell_of(g);
      for (int v = 0; v < cell.num_variants(); ++v) {
        const liberty::LibCellVariant& variant = cell.variant(v);
        for (std::size_t p = 0; p < variant.pins.size(); ++p) {
          const liberty::PinTiming& pin = variant.pins[p];
          const double* rows = slices.arc_rows(g, v, static_cast<int>(p));
          const liberty::NldmTable* tables[LoadSlicedTables::kRowsPerArc] = {
              &pin.delay_rise, &pin.slew_rise, &pin.delay_fall, &pin.slew_fall};
          for (std::size_t r = 0; r < LoadSlicedTables::kRowsPerArc; ++r) {
            std::vector<double> slews = tables[r]->slew_axis_ps();  // on the knots
            for (int probe = 0; probe < 20; ++probe) {
              slews.push_back(-30.0 +
                              400.0 * static_cast<double>(rng.next_below(1000)) / 1000.0);
            }
            for (double slew : slews) {
              const double expect = tables[r]->lookup(slew, load);
              const double got = liberty::interpolate(
                  rows + r * knots, knots,
                  liberty::locate_segment(slices.slew_axis(), knots, slew));
              ASSERT_EQ(std::bit_cast<std::uint64_t>(expect),
                        std::bit_cast<std::uint64_t>(got))
                  << cell.name() << " row " << r << " slew=" << slew << " load=" << load;
            }
          }
        }
      }
    }
  }
}

TEST(Sta, LoadSlicedTablesRejectMixedSlewAxes) {
  liberty::Library mixed = liberty::Library::build(model::TechParams::nominal(), {});
  const liberty::NldmTable& original = mixed.cell("INV").variant(0).pins[0].delay_rise;
  std::vector<double> values(2 * original.load_axis_ff().size(), 10.0);
  mixed.cell_at_mut(mixed.cell_index("INV")).variant_mut(0).pins[0].delay_rise =
      liberty::NldmTable({5.0, 50.0}, original.load_axis_ff(), values);
  netlist::Netlist n("mixed", &mixed);
  const int in = n.add_signal("in");
  const int out = n.add_signal("out");
  n.mark_input(in);
  n.add_gate("g", "INV", {in}, out);
  n.mark_output(out);
  n.finalize();
  EXPECT_THROW(LoadSlicedTables{n}, ContractError);
}

TEST(Sta, SlicedIncrementalUpdatesBitIdenticalToUnsliced) {
  // Attaching LoadSlicedTables must not change a single bit of any
  // propagated value relative to the plain 2-D lookups.
  const auto n = netlist::random_circuit(lib(), "sta_s", 14, 120, 53);
  const LoadSlicedTables slices(n);
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState sliced(n), plain(n);
  sliced.analyze(config);
  plain.analyze(config);
  sliced.use_load_slices(&slices);

  Rng rng(53);
  for (int step = 0; step < 40; ++step) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    config[static_cast<std::size_t>(g)].variant = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
    const double ds = sliced.update_after_gate_change(config, g, nullptr);
    const double dp = plain.update_after_gate_change(config, g, nullptr);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ds), std::bit_cast<std::uint64_t>(dp));
    for (int s = 0; s < n.num_signals(); ++s) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.arrival_rise_ps(s)),
                std::bit_cast<std::uint64_t>(plain.arrival_rise_ps(s)))
          << "step " << step << " signal " << s;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.slew_fall_ps(s)),
                std::bit_cast<std::uint64_t>(plain.slew_fall_ps(s)));
    }
  }
}

TEST(Sta, SlicedUpdatesBitIdenticalForOneAndTenKnotSlewAxes) {
  // The flat rows take any knot count: a single-knot axis (no slew
  // dependence at all) and a ten-knot one must both reproduce the 2-D
  // lookups bit for bit through incremental updates.
  for (const std::vector<double>& axis :
       {std::vector<double>{30.0},
        std::vector<double>{2.0, 5.0, 10.0, 20.0, 35.0, 60.0, 100.0, 160.0, 250.0, 400.0}}) {
    liberty::LibraryOptions options;
    options.slew_axis_ps = axis;
    const liberty::Library library =
        liberty::Library::build(model::TechParams::nominal(), options);
    const auto n = netlist::random_circuit(library, "sta_knots", 12, 100, 67);
    const LoadSlicedTables slices(n);
    ASSERT_EQ(slices.knots(), axis.size());
    sim::CircuitConfig config = sim::fastest_config(n);
    TimingState sliced(n), plain(n);
    sliced.analyze(config);
    plain.analyze(config);
    sliced.use_load_slices(&slices);

    Rng rng(67);
    for (int step = 0; step < 40; ++step) {
      const int g =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
      config[static_cast<std::size_t>(g)].variant = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
      TimingUndo undo_s, undo_p;
      const double ds = sliced.update_after_gate_change(config, g, &undo_s);
      const double dp = plain.update_after_gate_change(config, g, &undo_p);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ds), std::bit_cast<std::uint64_t>(dp))
          << axis.size() << " knots, step " << step;
      for (int s = 0; s < n.num_signals(); ++s) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.arrival_rise_ps(s)),
                  std::bit_cast<std::uint64_t>(plain.arrival_rise_ps(s)));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.arrival_fall_ps(s)),
                  std::bit_cast<std::uint64_t>(plain.arrival_fall_ps(s)));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.slew_rise_ps(s)),
                  std::bit_cast<std::uint64_t>(plain.slew_rise_ps(s)));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sliced.slew_fall_ps(s)),
                  std::bit_cast<std::uint64_t>(plain.slew_fall_ps(s)));
      }
      ASSERT_EQ(undo_s.entries.size(), undo_p.entries.size());
      if (step % 3 == 0) {  // exercise revert on both sides too
        sliced.revert(undo_s);
        plain.revert(undo_p);
        config[static_cast<std::size_t>(g)].variant = n.cell_of(g).fastest_variant();
        sliced.update_after_gate_change(config, g, nullptr);
        plain.update_after_gate_change(config, g, nullptr);
      }
    }
  }
}

/// True when, for every gate output, the analyzed worst arrival plus its
/// downstream bound stays within the circuit delay (the soundness the
/// bounded update's abort test relies on); reports the first violation.
::testing::AssertionResult bounds_hold(const netlist::Netlist& n, const TimingState& timing,
                                       const std::vector<double>& down_lb) {
  const double delay = timing.circuit_delay_ps();
  for (int g = 0; g < n.num_gates(); ++g) {
    const int s = n.gate(g).output;
    const double at = std::max(timing.arrival_rise_ps(s), timing.arrival_fall_ps(s));
    if (at + down_lb[static_cast<std::size_t>(s)] > delay + 1e-9) {
      return ::testing::AssertionFailure()
             << "signal " << n.signal_name(s) << ": at " << at << " + lb "
             << down_lb[static_cast<std::size_t>(s)] << " > delay " << delay;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Sta, DownstreamBoundsSoundUnderSharpBoundarySlews) {
  // INPUT(a), n0 = NOT(a), o = NOT(n0): a boundary slew sharper than the
  // library's primary-input default makes every stage faster than the
  // default-seeded bound assumes. The bound must be seeded like analyze().
  const auto n = inverter_chain(2);
  const LoadSlicedTables slices(n);
  for (const double slew : {0.1, 1.0, 5.0}) {
    BoundaryTiming boundary;
    boundary.points.push_back({0.0, slew});
    TimingState timing(n);
    timing.set_boundary(boundary);
    timing.analyze(sim::fastest_config(n));
    EXPECT_TRUE(bounds_hold(n, timing, downstream_delay_lower_bounds_ps(n, slices, boundary)))
        << "boundary slew " << slew;
  }
}

TEST(Sta, DownstreamBoundsHoldUnderRandomConfigs) {
  // Property: for random variants and random pin permutations, the
  // analyzed arrival at every gate output plus its bound never exceeds the
  // circuit delay -- with default seeds and with random boundary seeds.
  for (std::uint64_t seed : {101ULL, 102ULL, 103ULL, 104ULL}) {
    const auto n = netlist::random_circuit(lib(), "sta_lb", 12, 150, seed);
    const LoadSlicedTables slices(n);
    Rng rng(seed);
    BoundaryTiming boundary;
    for (int i = 0; i < n.num_control_points(); ++i) {
      // Slews from 0.5 to 60 ps, some <= 0 (the library default).
      const double slew = rng.next_below(4) == 0 ? 0.0 : 0.5 + 59.5 * rng.next_double();
      boundary.points.push_back({40.0 * rng.next_double(), slew});
    }
    const BoundaryTiming defaults;
    const BoundaryTiming* seeds[] = {&defaults, &boundary};
    for (const BoundaryTiming* b : seeds) {
      const std::vector<double> down_lb = downstream_delay_lower_bounds_ps(n, slices, *b);
      TimingState timing(n);
      timing.set_boundary(*b);
      for (int trial = 0; trial < 25; ++trial) {
        sim::CircuitConfig config = sim::fastest_config(n);
        for (int g = 0; g < n.num_gates(); ++g) {
          sim::GateConfig& gc = config[static_cast<std::size_t>(g)];
          gc.variant = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
          std::vector<int> perm(n.gate(g).fanins.size());
          for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
          for (std::size_t i = perm.size(); i > 1; --i) {
            std::swap(perm[i - 1], perm[rng.next_below(i)]);
          }
          gc.mapping.logical_to_physical = perm;
        }
        timing.analyze(config);
        ASSERT_TRUE(bounds_hold(n, timing, down_lb)) << "seed " << seed << " trial " << trial;
      }
    }
  }
}

TEST(Sta, BoundedUpdateMatchesPlainWhenNoAbort) {
  // With an unreachable ceiling the bounded update must walk the exact
  // same cone and produce bit-identical state; with an impossible ceiling
  // it must abort (returning 1e300) and revert back to the starting bits.
  const auto n = netlist::random_circuit(lib(), "sta_bb", 14, 120, 61);
  const std::vector<double> down_lb =
      downstream_delay_lower_bounds_ps(n, LoadSlicedTables(n), BoundaryTiming{});
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState bounded(n), plain(n);
  bounded.analyze(config);
  plain.analyze(config);

  Rng rng(61);
  for (int step = 0; step < 30; ++step) {
    const int g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    config[static_cast<std::size_t>(g)].variant = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n.cell_of(g).num_variants())));
    const double db =
        bounded.update_after_gate_change_bounded(config, g, down_lb, 1e12, nullptr);
    const double dp = plain.update_after_gate_change(config, g, nullptr);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(db), std::bit_cast<std::uint64_t>(dp));
    for (int s = 0; s < n.num_signals(); ++s) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bounded.arrival_fall_ps(s)),
                std::bit_cast<std::uint64_t>(plain.arrival_fall_ps(s)))
          << "step " << step << " signal " << s;
    }
  }

  // Abort path: a negative ceiling is unsatisfiable whenever the changed
  // gate reaches an observe point, so the update must bail and the undo
  // log must restore the pre-trial bits exactly.
  std::vector<double> before(static_cast<std::size_t>(n.num_signals()));
  for (int s = 0; s < n.num_signals(); ++s) before[s] = bounded.arrival_rise_ps(s);
  for (int g = 0; g < n.num_gates(); ++g) {
    if (down_lb[static_cast<std::size_t>(n.gate(g).output)] == -1e300) continue;
    const int old = config[static_cast<std::size_t>(g)].variant;
    config[static_cast<std::size_t>(g)].variant =
        n.cell_of(g).num_variants() - 1;  // slowest
    TimingUndo undo;
    const double d =
        bounded.update_after_gate_change_bounded(config, g, down_lb, -1.0, &undo);
    EXPECT_EQ(d, 1e300);
    bounded.revert(undo);
    config[static_cast<std::size_t>(g)].variant = old;
    for (int s = 0; s < n.num_signals(); ++s) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bounded.arrival_rise_ps(s)),
                std::bit_cast<std::uint64_t>(before[s]))
          << "gate " << g << " signal " << s;
    }
    break;  // one abort exercise is enough; the loop just finds a covered gate
  }
}

/// Oracle for circuit_delay_ps(): the linear scan over every observe point.
double scan_delay_ps(const netlist::Netlist& n, const TimingState& timing) {
  double worst = 0.0;
  for (int s : n.observe_points()) {
    worst = std::max({worst, timing.arrival_rise_ps(s), timing.arrival_fall_ps(s)});
  }
  return worst;
}

/// `num_gates` random INV/NAND2/NOR2 gates over 8 inputs. Every gate
/// output is observed (sinks included), so the distinct observe points
/// equal the gate count; the first one is marked twice.
netlist::Netlist observed_everywhere(int num_gates, std::uint64_t seed) {
  netlist::Netlist n("obs" + std::to_string(num_gates), &lib());
  Rng rng(seed);
  std::vector<int> signals;
  for (int i = 0; i < 8; ++i) {
    signals.push_back(n.add_signal("i" + std::to_string(i)));
    n.mark_input(signals.back());
  }
  auto pick = [&] {
    // Mostly recent signals, for depth.
    const std::size_t window = std::min<std::size_t>(signals.size(), 40);
    return signals[signals.size() - 1 - rng.next_below(window)];
  };
  for (int g = 0; g < num_gates; ++g) {
    const int out = n.add_signal("n" + std::to_string(g));
    const std::uint64_t kind = rng.next_below(3);
    if (kind == 0) {
      n.add_gate("g" + std::to_string(g), "INV", {pick()}, out);
    } else {
      const int a = pick();
      int b = pick();
      if (b == a) b = signals[rng.next_below(signals.size())];
      if (b == a) b = signals.front() == a ? signals.back() : signals.front();
      n.add_gate("g" + std::to_string(g), kind == 1 ? "NAND2" : "NOR2", {a, b}, out);
    }
    n.mark_output(out);
    signals.push_back(out);
  }
  n.mark_output(signals[8]);
  n.finalize();
  return n;
}

std::size_t distinct_observe_points(const netlist::Netlist& n) {
  std::vector<int> points = n.observe_points();
  std::sort(points.begin(), points.end());
  return static_cast<std::size_t>(std::unique(points.begin(), points.end()) - points.begin());
}

/// Seeded random walk over every operation that moves timing: bounded
/// updates (some aborting), unbounded updates, null-undo updates, reverts,
/// snapshot/restore and analyze. After each step the cached circuit delay
/// must equal the linear scan bit for bit.
void check_incremental_delay(const netlist::Netlist& n, std::uint64_t seed) {
  const std::vector<double> down_lb =
      downstream_delay_lower_bounds_ps(n, LoadSlicedTables(n), BoundaryTiming{});
  sim::CircuitConfig config = sim::fastest_config(n);
  TimingState timing(n);
  const double analyzed = timing.analyze(config);
  EXPECT_EQ(analyzed, scan_delay_ps(n, timing));

  struct Step {
    TimingUndo undo;
    int gate;
    int old_variant;
  };
  std::vector<Step> stack;  // reverts are LIFO
  TimingSnapshot snap;
  sim::CircuitConfig snap_config = config;
  timing.snapshot(snap);

  Rng rng(seed);
  auto change_random_gate = [&](Step& step) {
    step.gate = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n.num_gates())));
    sim::GateConfig& gc = config[static_cast<std::size_t>(step.gate)];
    step.old_variant = gc.variant;
    gc.variant = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n.cell_of(step.gate).num_variants())));
  };
  auto undo_step = [&](const Step& step) {
    timing.revert(step.undo);
    config[static_cast<std::size_t>(step.gate)].variant = step.old_variant;
  };

  for (int i = 0; i < 300; ++i) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 35) {
      // Bounded, with a ceiling around the current delay: some abort.
      const double ceiling =
          timing.circuit_delay_ps() * (0.97 + 0.06 * rng.next_double());
      Step step;
      change_random_gate(step);
      const double d =
          timing.update_after_gate_change_bounded(config, step.gate, down_lb, ceiling, &step.undo);
      if (d == 1e300) {
        undo_step(step);  // the caller contract: revert an aborted update
      } else {
        EXPECT_EQ(d, scan_delay_ps(n, timing)) << "bounded step " << i;
        stack.push_back(std::move(step));
      }
    } else if (op < 60) {
      Step step;
      change_random_gate(step);
      const double d = timing.update_after_gate_change(config, step.gate, &step.undo);
      EXPECT_EQ(d, scan_delay_ps(n, timing)) << "unbounded step " << i;
      TimingState fresh(n);
      EXPECT_EQ(fresh.analyze(config), d) << "unbounded step " << i;
      for (int s = 0; s < n.num_signals(); ++s) {
        ASSERT_EQ(timing.arrival_rise_ps(s), fresh.arrival_rise_ps(s)) << "signal " << s;
        ASSERT_EQ(timing.arrival_fall_ps(s), fresh.arrival_fall_ps(s)) << "signal " << s;
        ASSERT_EQ(timing.slew_rise_ps(s), fresh.slew_rise_ps(s)) << "signal " << s;
        ASSERT_EQ(timing.slew_fall_ps(s), fresh.slew_fall_ps(s)) << "signal " << s;
      }
      stack.push_back(std::move(step));
    } else if (op < 70) {
      // No undo log: nothing earlier can be reverted past this point.
      Step step;
      change_random_gate(step);
      const double d = timing.update_after_gate_change(config, step.gate, nullptr);
      EXPECT_EQ(d, scan_delay_ps(n, timing)) << "null-undo step " << i;
      stack.clear();
    } else if (op < 88) {
      if (!stack.empty()) {
        undo_step(stack.back());
        stack.pop_back();
      }
    } else if (op < 93) {
      timing.snapshot(snap);
      snap_config = config;
    } else if (op < 97) {
      timing.restore(snap);
      config = snap_config;
      stack.clear();
    } else {
      const double d = timing.analyze(config);
      EXPECT_EQ(d, scan_delay_ps(n, timing)) << "analyze step " << i;
      stack.clear();
    }
    ASSERT_EQ(timing.circuit_delay_ps(), scan_delay_ps(n, timing)) << "step " << i;
  }
}

TEST(Sta, IncrementalDelayMatchesScanFewObservePoints) {
  const auto n = netlist::random_circuit(lib(), "sta_few", 14, 120, 71);
  ASSERT_LE(distinct_observe_points(n), 64u);
  check_incremental_delay(n, 71);
}

TEST(Sta, IncrementalDelayMatchesScanManyObservePoints) {
  const auto n = observed_everywhere(300, 73);
  ASSERT_GT(distinct_observe_points(n), 64u);
  ASSERT_GT(n.observe_points().size(), distinct_observe_points(n));  // one marked twice
  check_incremental_delay(n, 73);
}

TEST(Sta, IncrementalDelayMatchesScanOverFourThousandObservePoints) {
  // More than 64 blocks, so the dirty-block bitmap spans several words.
  const auto n = observed_everywhere(4200, 79);
  ASSERT_GT(distinct_observe_points(n), 4096u);
  check_incremental_delay(n, 79);
}

TEST(Sta, IncrementalDelayMatchesScanWithFlipFlops) {
  // Observe points include flip-flop D inputs after the primary outputs.
  const auto n = netlist::sequential_pipeline(lib(), "sta_pipe", 16, 3, 90, 83);
  ASSERT_GT(n.num_flip_flops(), 0);
  check_incremental_delay(n, 83);
}

TEST(DelayBudget, EndpointsAndInterpolation) {
  const auto n = netlist::random_circuit(lib(), "sta_b", 12, 100, 47);
  const DelayBudget budget = compute_delay_budget(n);
  EXPECT_GT(budget.fast_delay_ps, 0.0);
  // All-slow sits near the combined corner factor above all-fast
  // (paper: "nearly double").
  const double ratio = budget.slow_delay_ps / budget.fast_delay_ps;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.8);
  EXPECT_DOUBLE_EQ(budget.constraint_ps(0.0), budget.fast_delay_ps);
  EXPECT_DOUBLE_EQ(budget.constraint_ps(1.0), budget.slow_delay_ps);
  const double mid = budget.constraint_ps(0.5);
  EXPECT_GT(mid, budget.fast_delay_ps);
  EXPECT_LT(mid, budget.slow_delay_ps);
}

TEST(DelayBudget, FastEndpointMatchesAnalyze) {
  const auto n = inverter_chain(5);
  const DelayBudget budget = compute_delay_budget(n);
  TimingState timing(n);
  EXPECT_NEAR(timing.analyze(sim::fastest_config(n)), budget.fast_delay_ps, 1e-9);
}

}  // namespace
}  // namespace svtox::sta
