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

TEST(Sta, LoadSliceBitIdenticalToTableLookup) {
  // The contract of NldmLoadSlice: lookup(slew) returns the SAME BITS as
  // the 2-D table lookup at the construction load, including extrapolation
  // beyond both ends of the slew axis.
  Rng rng(59);
  for (const liberty::LibCell& cell : lib().cells()) {
    for (const liberty::LibCellVariant& variant : cell.variants()) {
      for (const liberty::PinTiming& pin : variant.pins) {
        for (const liberty::NldmTable* table :
             {&pin.delay_rise, &pin.delay_fall, &pin.slew_rise, &pin.slew_fall}) {
          // Loads inside, between and outside the characterized axis.
          const double load =
              0.1 + 80.0 * static_cast<double>(rng.next_below(1000)) / 1000.0;
          const liberty::NldmLoadSlice slice(*table, load);
          for (int probe = 0; probe < 20; ++probe) {
            const double slew =
                -30.0 + 400.0 * static_cast<double>(rng.next_below(1000)) / 1000.0;
            const double expect = table->lookup(slew, load);
            const double got = slice.lookup(slew);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(expect),
                      std::bit_cast<std::uint64_t>(got))
                << cell.name() << " slew=" << slew << " load=" << load;
          }
        }
      }
    }
  }
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

TEST(Sta, BoundedUpdateMatchesPlainWhenNoAbort) {
  // With an unreachable ceiling the bounded update must walk the exact
  // same cone and produce bit-identical state; with an impossible ceiling
  // it must abort (returning 1e300) and revert back to the starting bits.
  const auto n = netlist::random_circuit(lib(), "sta_bb", 14, 120, 61);
  const std::vector<double> down_lb = downstream_delay_lower_bounds_ps(n);
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
  const std::vector<double> down_lb = downstream_delay_lower_bounds_ps(n);
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
