#include "svc/hier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/solution_io.hpp"
#include "netlist/bench_io.hpp"
#include "opt/gate_assign.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/sim.hpp"
#include "svc/fingerprint.hpp"
#include "svc/scheduler.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace svtox::svc {

namespace {

/// Applies the stitched config's delay repair: from-scratch STA, then
/// critical-path gates reset to their fastest identity-mapped version
/// until the constraint holds. Returns the final delay. When
/// `max_resets` >= 0 the loop gives up as soon as it has reset more gates
/// than that (callers probing whether a *cheap* repair exists bail out
/// instead of paying the full walk just to discard it).
double repair_delay(const netlist::Netlist& netlist, double constraint_ps,
                    sim::CircuitConfig& config, int& repaired_gates,
                    int max_resets = -1) {
  sta::TimingState timing(netlist);
  double delay = timing.analyze(config);
  if (delay <= constraint_ps) return delay;
  const sim::CircuitConfig fastest = sim::fastest_config(netlist);
  const int reset_budget = max_resets >= 0 ? repaired_gates + max_resets
                                           : std::numeric_limits<int>::max();
  for (int round = 0; delay > constraint_ps; ++round) {
    if (repaired_gates > reset_budget) return delay;
    bool changed = false;
    if (round < 256) {
      for (int g : timing.critical_path(config)) {
        sim::GateConfig& gc = config[static_cast<std::size_t>(g)];
        const sim::GateConfig& fast = fastest[static_cast<std::size_t>(g)];
        if (gc.variant != fast.variant || !gc.mapping.logical_to_physical.empty()) {
          gc = fast;
          ++repaired_gates;
          changed = true;
        }
      }
    }
    if (!changed) {
      // The critical path is already all-fast (a slew interaction off the
      // backtracked path) or the loop is taking too long: fall back to the
      // all-fast configuration, which meets any constraint >= fast delay.
      for (std::size_t g = 0; g < config.size(); ++g) {
        if (config[g].variant != fastest[g].variant ||
            !config[g].mapping.logical_to_physical.empty()) {
          config[g] = fastest[g];
          ++repaired_gates;
        }
      }
      return timing.analyze(config);
    }
    delay = timing.analyze(config);
  }
  return delay;
}

/// Parses one cone job's result against the exact netlist the job was
/// solved on (read_bench of the same text with the content-hash name, so
/// the solution text parses positionally: cone gate k is global gate
/// partition.gates[k], cone PI j is boundary input j).
opt::Solution parse_cone_solution(const netlist::Netlist& netlist,
                                  const std::string& text,
                                  const opt::Partition& part,
                                  const JobResult& result) {
  if (result.status != JobStatus::kDone) {
    throw ContractError("cone job failed: " + result.error);
  }
  const std::string name = "bt" + hex64(Fnv().str(text).value());
  const netlist::Netlist cone =
      netlist::read_bench(text, name, netlist.library(), name);
  opt::Solution sub = core::read_solution(result.solution_text, cone);
  if (sub.sleep_vector.size() != part.boundary_inputs.size() ||
      sub.config.size() != part.gates.size()) {
    throw ContractError("optimize_hierarchical: cone solution shape mismatch");
  }
  return sub;
}

/// One gate's exact leakage term [nA] under a full-signal valuation --
/// the same table lookup circuit_leakage_from_values_na sums, so
/// per-partition sums of this term are exact leakage contributions.
double gate_leakage_na(const netlist::Netlist& netlist,
                       const std::vector<bool>& values, int gate,
                       const sim::GateConfig& gc) {
  return netlist.cell_of(gate).leakage_na(
      gc.variant, gc.physical_state(sim::local_state(netlist, values, gate)));
}

/// The "arrival:slew,..." boundary-timing string for one cone: measured
/// worst-edge upstream arrival/slew per boundary input, quantized to whole
/// picoseconds (llround) so structurally identical cones in electrically
/// identical contexts keep byte-identical cache keys. Global control
/// points emit "0:0" (zero arrival, library-default slew) -- their exact
/// global seeds.
std::string boundary_timing_string(const opt::Partition& part,
                                   const netlist::Netlist& netlist,
                                   const sta::TimingState& timing) {
  std::string out;
  for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
    const int f = part.boundary_inputs[j];
    if (j != 0) out += ',';
    if (netlist.driver(f) < 0) {
      out += "0:0";
      continue;
    }
    const long long arrival = std::llround(
        std::max(timing.arrival_rise_ps(f), timing.arrival_fall_ps(f)));
    const long long slew =
        std::llround(std::max(timing.slew_rise_ps(f), timing.slew_fall_ps(f)));
    out += std::to_string(arrival < 0 ? 0 : arrival);
    out += ':';
    out += std::to_string(slew < 0 ? 0 : slew);
  }
  return out;
}

}  // namespace

HierResult optimize_hierarchical(const netlist::Netlist& netlist,
                                 const HierOptions& options) {
  Timer timer;
  if (!netlist.finalized()) {
    throw ContractError("optimize_hierarchical: netlist not finalized");
  }
  if (options.method == "average") {
    throw ContractError("optimize_hierarchical: per-cone method must produce a solution");
  }

  HierResult out;
  out.budget = sta::compute_delay_budget(netlist);
  out.constraint_ps = out.budget.constraint_ps(options.penalty_fraction);

  const std::vector<opt::Partition> partitions =
      opt::partition_netlist(netlist, options.partition);
  const std::size_t num_parts = partitions.size();
  out.partitions = static_cast<int>(num_parts);

  // Partition DAG levels: partitions are topo-ordered (every driven
  // boundary input comes from an earlier partition), so one forward pass
  // assigns level[p] = 1 + max level over upstream driver partitions.
  std::vector<int> part_of(static_cast<std::size_t>(netlist.num_gates()), -1);
  for (std::size_t p = 0; p < num_parts; ++p) {
    for (const int g : partitions[p].gates) {
      part_of[static_cast<std::size_t>(g)] = static_cast<int>(p);
    }
  }
  std::vector<int> level(num_parts, 0);
  int max_level = 0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    for (const int f : partitions[p].boundary_inputs) {
      const int d = netlist.driver(f);
      if (d < 0) continue;
      level[p] = std::max(level[p], level[static_cast<std::size_t>(
                                        part_of[static_cast<std::size_t>(d)])] +
                                        1);
    }
    max_level = std::max(max_level, level[p]);
  }
  out.levels = num_parts == 0 ? 0 : max_level + 1;

  // Level batches of the sweep. Without boundary context every cone is
  // independent (the legacy relaxation), so one batch keeps the full
  // scheduler parallelism.
  const bool use_context = options.pin_boundaries || options.seed_boundary_timing;
  std::vector<std::vector<std::size_t>> batches;
  if (use_context) {
    batches.resize(static_cast<std::size_t>(max_level) + 1);
    for (std::size_t p = 0; p < num_parts; ++p) {
      batches[static_cast<std::size_t>(level[p])].push_back(p);
    }
  } else {
    batches.emplace_back(num_parts);
    std::iota(batches[0].begin(), batches[0].end(), std::size_t{0});
  }

  std::vector<std::string> texts;
  texts.reserve(num_parts);
  for (const opt::Partition& part : partitions) {
    texts.push_back(opt::canonical_bench_text(netlist, part));
  }

  Scheduler::Options sched_options;
  sched_options.workers = options.workers;
  sched_options.queue_capacity = num_parts + 1;
  sched_options.cache_capacity = std::max<std::size_t>(1024, num_parts);
  sched_options.cache_dir = options.cache_dir;
  Scheduler scheduler(sched_options);

  auto base_spec = [&](std::size_t p) {
    JobSpec spec;
    spec.bench_text = texts[p];
    spec.method = options.method;
    spec.penalty_percent =
        options.penalty_fraction * options.cone_penalty_scale * 100.0;
    spec.time_limit_s = options.time_limit_s;
    spec.random_vectors = options.random_vectors;
    spec.seed = options.seed;
    spec.nitrided = options.nitrided;
    spec.two_point = options.two_point;
    spec.uniform_stack = options.uniform_stack;
    spec.vt_only = options.vt_only;
    return spec;
  };

  // Control-point index per signal for the sleep votes and pin strings.
  std::vector<int> cp_index(static_cast<std::size_t>(netlist.num_signals()), -1);
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    cp_index[static_cast<std::size_t>(netlist.control_points()[i])] = i;
  }

  std::vector<bool> sleep(static_cast<std::size_t>(netlist.num_control_points()),
                          false);
  // First-voter partition per control point (-1 = unvoted). The refine
  // loop frees exactly the points a partition owns when re-solving it.
  std::vector<int> voter(sleep.size(), -1);
  sim::CircuitConfig config = sim::fastest_config(netlist);
  std::vector<bool> values;          // Global valuation, refreshed per batch.
  sta::TimingState timing(netlist);  // Reused across batches and refine passes.

  // Boundary-timing seeds come from a full STA of the stitched-so-far
  // config. Re-analyzing at every level would cost levels * O(netlist) --
  // the deep dag500k preset has 125 levels, which is ~16x the whole legacy
  // runtime -- so the timing state is refreshed only once at least 1/16 of
  // the gates were reconfigured since the last analysis. Seeds are budget
  // hints, so bounded staleness does not affect correctness, and the
  // refresh rule depends only on the partition structure, keeping cache
  // keys reproducible across runs and worker counts.
  const std::size_t seed_refresh_gates = std::max<std::size_t>(
      1, static_cast<std::size_t>(netlist.num_gates()) / 16);
  std::size_t stale_gates = 0;
  bool timing_seeded = false;

  // --- Level-ordered sweep ---------------------------------------------
  // Votes and config copies happen in ascending partition id within each
  // ascending level: a deterministic function of the partition structure,
  // byte-identical under any worker count or job completion order.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<std::size_t>& batch = batches[b];
    // Level b > 0 cones see the stitched upstream context. Signals feeding
    // them are driven by partitions at levels < b, whose cones -- values
    // and timing alike -- are fully determined by the votes and configs
    // already stitched (unvoted control points default to 0, matching the
    // final forced-0 stitch).
    const bool pin = options.pin_boundaries && b > 0;
    const bool seed = options.seed_boundary_timing && b > 0;
    if (pin) values = sim::simulate(netlist, sleep);
    if (seed && (!timing_seeded || stale_gates >= seed_refresh_gates)) {
      timing.analyze(config);
      timing_seeded = true;
      stale_gates = 0;
    }

    std::vector<JobId> jobs;
    jobs.reserve(batch.size());
    for (const std::size_t p : batch) {
      JobSpec spec = base_spec(p);
      const opt::Partition& part = partitions[p];
      if (pin) {
        // One char per cone control point: driven boundaries pinned to
        // their stitched simulated value, control points already voted by
        // an earlier level pinned to the decided bit (the cone optimizes
        // consistently with settled facts instead of assuming it can flip
        // them), unvoted control points left free for this cone to vote
        // on. All-free stays empty so context-free cones keep their
        // historical cache keys (and their dedup).
        std::string pins(part.boundary_inputs.size(), 'x');
        bool any = false;
        for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
          const int f = part.boundary_inputs[j];
          if (netlist.driver(f) >= 0) {
            pins[j] = values[static_cast<std::size_t>(f)] ? '1' : '0';
            any = true;
          } else {
            const int cp = cp_index[static_cast<std::size_t>(f)];
            if (cp >= 0 && voter[static_cast<std::size_t>(cp)] >= 0) {
              pins[j] = sleep[static_cast<std::size_t>(cp)] ? '1' : '0';
              any = true;
            }
          }
        }
        if (any) spec.pinned_inputs = std::move(pins);
      }
      if (seed) {
        spec.boundary_timing = boundary_timing_string(part, netlist, timing);
      }
      jobs.push_back(scheduler.submit(spec));
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t p = batch[i];
      const opt::Partition& part = partitions[p];
      const opt::Solution sub =
          parse_cone_solution(netlist, texts[p], part, scheduler.wait(jobs[i]));
      out.solution.states_explored += sub.states_explored;
      for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
        const int cp = cp_index[static_cast<std::size_t>(part.boundary_inputs[j])];
        // Boundary inputs driven by other partitions carry no vote: the
        // real circuit determines them.
        if (cp < 0 || voter[static_cast<std::size_t>(cp)] >= 0) continue;
        voter[static_cast<std::size_t>(cp)] = static_cast<int>(p);
        sleep[static_cast<std::size_t>(cp)] = sub.sleep_vector[j];
      }
      for (std::size_t k = 0; k < part.gates.size(); ++k) {
        config[static_cast<std::size_t>(part.gates[k])] = sub.config[k];
      }
      stale_gates += part.gates.size();
    }
  }

  // When a stitched config misses the global constraint (per-cone budgets
  // do not compose exactly even with seeded boundary timing), the cone
  // gate assignments are redone *globally* at the stitched sleep state
  // with the same greedy gate-tree pass flat Heu1 runs per leaf -- a
  // polynomial pass under the true constraint, instead of resetting
  // critical-path gates to their fastest (worst-leakage) variants. The
  // exponential part -- the sleep state -- keeps its hierarchical
  // solution either way. Built lazily: circuits whose stitch composes
  // (the common case at scale) never pay for the global problem.
  std::unique_ptr<opt::AssignmentProblem> global_problem;
  auto global_reassign = [&](const std::vector<bool>& state,
                             sim::CircuitConfig& cfg, int& changed) {
    if (global_problem == nullptr) {
      global_problem = std::make_unique<opt::AssignmentProblem>(
          netlist, options.penalty_fraction);
    }
    opt::Solution re = opt::assign_gates_greedy(*global_problem, state);
    for (std::size_t g = 0; g < cfg.size(); ++g) {
      if (cfg[g].variant != re.config[g].variant ||
          cfg[g].mapping.logical_to_physical !=
              re.config[g].mapping.logical_to_physical) {
        ++changed;
      }
    }
    cfg = std::move(re.config);
    return re.delay_ps;
  };

  // Exact global evaluation of the stitched assignment: full simulation
  // for the leakage, full STA for the delay.
  double delay = timing.analyze(config);
  if (delay > out.constraint_ps) {
    // Cheap local repair first: walk the critical path resetting gates to
    // their fastest version. The boundary-aware sweep usually leaves the
    // stitched config close to feasible, so a handful of resets fixes the
    // violation at negligible leakage cost and O(rounds) STA time. A
    // repair that needs more than ~0.5% of the gates is destroying real
    // leakage savings instead -- throw it away and redo the whole
    // per-gate assignment globally at the stitched sleep state
    // (assign_gates_greedy, the same polynomial pass flat Heu1 runs per
    // leaf; exact, and serial: 0.4-0.5 s on a 32k-gate circuit with
    // 256 inputs, on one core of a 4-vCPU x86 VM).
    sim::CircuitConfig local = config;
    int local_resets = 0;
    const double local_delay = repair_delay(netlist, out.constraint_ps, local,
                                            local_resets,
                                            netlist.num_gates() / 200);
    if (local_delay <= out.constraint_ps) {
      config = std::move(local);
      out.repaired_gates += local_resets;
      delay = local_delay;
    } else {
      delay = global_reassign(sleep, config, out.repaired_gates);
    }
  }
  values = sim::simulate(netlist, sleep);
  double leakage = sim::circuit_leakage_from_values_na(netlist, config, values);

  // --- Stitch-refine loop ----------------------------------------------
  // Re-solve the worst partitions by exact leakage contribution in their
  // full stitched context: driven boundaries pinned to their simulated
  // values, control points first-voted by *other* partitions pinned to
  // the decided bits, and the partition's own control points left free to
  // re-vote now that the cone sees everything around it. Every candidate
  // is evaluated exactly on the real circuit (fresh simulation, from-
  // scratch STA, repair when the patched config misses the constraint)
  // and kept only if the global exact leakage improves; the loop stops
  // when a whole pass keeps nothing or the pass budget runs out.
  for (int pass = 0; pass < options.refine_passes && options.refine_worst > 0;
       ++pass) {
    ++out.refine_passes_run;
    std::vector<double> contrib(num_parts, 0.0);
    for (int g = 0; g < netlist.num_gates(); ++g) {
      contrib[static_cast<std::size_t>(part_of[static_cast<std::size_t>(g)])] +=
          gate_leakage_na(netlist, values, g, config[static_cast<std::size_t>(g)]);
    }
    std::vector<std::size_t> order(num_parts);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (contrib[a] != contrib[b]) return contrib[a] > contrib[b];
      return a < b;  // deterministic tie-break by partition id
    });
    const std::size_t worst =
        std::min<std::size_t>(static_cast<std::size_t>(options.refine_worst),
                              num_parts);

    if (options.seed_boundary_timing) timing.analyze(config);
    std::vector<JobId> jobs;
    jobs.reserve(worst);
    for (std::size_t i = 0; i < worst; ++i) {
      const std::size_t p = order[i];
      const opt::Partition& part = partitions[p];
      JobSpec spec = base_spec(p);
      std::string pins(part.boundary_inputs.size(), 'x');
      bool any = false;
      for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
        const int f = part.boundary_inputs[j];
        const int cp = cp_index[static_cast<std::size_t>(f)];
        if (cp < 0) {
          pins[j] = values[static_cast<std::size_t>(f)] ? '1' : '0';
          any = true;
        } else if (voter[static_cast<std::size_t>(cp)] >= 0 &&
                   voter[static_cast<std::size_t>(cp)] != static_cast<int>(p)) {
          pins[j] = sleep[static_cast<std::size_t>(cp)] ? '1' : '0';
          any = true;
        }
      }
      if (any) spec.pinned_inputs = std::move(pins);
      if (options.seed_boundary_timing) {
        spec.boundary_timing = boundary_timing_string(part, netlist, timing);
      }
      jobs.push_back(scheduler.submit(spec));
    }

    // Candidates are evaluated and accepted in rank order (deterministic);
    // an accepted candidate's state immediately becomes the baseline the
    // next candidate must beat.
    bool accepted_any = false;
    for (std::size_t i = 0; i < worst; ++i) {
      const std::size_t p = order[i];
      const opt::Partition& part = partitions[p];
      const opt::Solution sub =
          parse_cone_solution(netlist, texts[p], part, scheduler.wait(jobs[i]));
      out.solution.states_explored += sub.states_explored;

      std::vector<bool> trial_sleep = sleep;
      for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
        const int cp = cp_index[static_cast<std::size_t>(part.boundary_inputs[j])];
        if (cp >= 0 && voter[static_cast<std::size_t>(cp)] == static_cast<int>(p)) {
          trial_sleep[static_cast<std::size_t>(cp)] = sub.sleep_vector[j];
        }
      }
      sim::CircuitConfig trial = config;
      for (std::size_t k = 0; k < part.gates.size(); ++k) {
        trial[static_cast<std::size_t>(part.gates[k])] = sub.config[k];
      }
      // Leakage first, delay second: a candidate that does not improve the
      // leakage even *before* any delay repair is rejected without paying
      // for an STA (repairs only trade leakage for delay, never the other
      // way), which keeps a no-progress refine pass at simulation cost.
      const std::vector<bool> trial_values = sim::simulate(netlist, trial_sleep);
      double trial_leakage =
          sim::circuit_leakage_from_values_na(netlist, trial, trial_values);
      if (trial_leakage >= leakage) continue;
      int trial_repaired = 0;
      double trial_delay = timing.analyze(trial);
      if (trial_delay > out.constraint_ps) {
        // The cheap local repair, not a global re-assignment: an
        // over-repaired trial simply fails the exact leakage check below,
        // and a no-progress pass stays at simulation + repair cost even
        // on the largest circuits.
        trial_delay =
            repair_delay(netlist, out.constraint_ps, trial, trial_repaired);
        trial_leakage =
            sim::circuit_leakage_from_values_na(netlist, trial, trial_values);
        if (trial_leakage >= leakage) continue;
      }
      sleep = std::move(trial_sleep);
      config = std::move(trial);
      values = trial_values;
      leakage = trial_leakage;
      delay = trial_delay;
      out.repaired_gates += trial_repaired;
      ++out.refine_accepted;
      accepted_any = true;
    }
    if (!accepted_any) break;
  }

  const SchedulerStats stats = scheduler.stats();
  out.unique_solves = stats.executed;
  out.cache_hits = stats.cache.hits + stats.cache.disk_hits + stats.cache.inflight_waits;

  out.solution.sleep_vector = std::move(sleep);
  out.solution.config = std::move(config);
  out.solution.leakage_na = leakage;
  out.solution.delay_ps = delay;
  out.solution.runtime_s = timer.seconds();
  out.runtime_s = out.solution.runtime_s;
  return out;
}

}  // namespace svtox::svc
