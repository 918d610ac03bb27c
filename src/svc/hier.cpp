#include "svc/hier.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
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
  if (options.method == "vtstate") {
    // The global gate pass runs over the library `netlist` is bound to;
    // vtstate would solve its cones on a dual-Vt twin of it instead.
    throw ContractError(
        "optimize_hierarchical: vtstate is not supported; run heu2 on a "
        "dual-Vt library (vt_only) for the Vt+state baseline");
  }

  HierResult out;
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

  // Control-point index per signal for the sleep votes and pin strings.
  std::vector<int> cp_index(static_cast<std::size_t>(netlist.num_signals()), -1);
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    cp_index[static_cast<std::size_t>(netlist.control_points()[i])] = i;
  }

  // --- Voter census ------------------------------------------------------
  // The answer's gates come from the global pass below, so a cone reaches
  // the answer only through its votes (the first sleep bits it sets, in
  // sweep order) and, for searches that read timing, through the seeds it
  // feeds a later voter. Heu1's descent is delay-blind
  // (BoundKind::kMinVariant) and the state-only search assigns no gates,
  // so they solve only the voting cones, unseeded. Other methods also
  // solve every cone below the last voting level, which keeps each seed
  // and the refresh schedule exact.
  const bool seeded = options.seed_boundary_timing && options.method != "heu1" &&
                      options.method != "state";
  // voter[cp]: the partition casting control point cp's vote (-1: none).
  std::vector<int> voter(static_cast<std::size_t>(netlist.num_control_points()), -1);
  std::vector<bool> solve(num_parts, false);
  std::size_t last_voting_batch = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const std::size_t p : batches[b]) {
      for (const int f : partitions[p].boundary_inputs) {
        const int cp = cp_index[static_cast<std::size_t>(f)];
        if (cp < 0 || voter[static_cast<std::size_t>(cp)] >= 0) continue;
        voter[static_cast<std::size_t>(cp)] = static_cast<int>(p);
        solve[p] = true;
        last_voting_batch = b;
      }
    }
  }
  for (std::size_t b = 0; seeded && b < last_voting_batch; ++b) {
    for (const std::size_t p : batches[b]) solve[p] = true;
  }
  for (std::vector<std::size_t>& batch : batches) {
    std::erase_if(batch, [&](std::size_t p) { return !solve[p]; });
  }

  std::vector<std::string> texts(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (solve[p]) texts[p] = opt::canonical_bench_text(netlist, partitions[p]);
  }

  Scheduler::Options sched_options;
  sched_options.workers = options.workers;
  sched_options.queue_capacity = num_parts + 1;
  sched_options.cache_capacity = std::max<std::size_t>(1024, num_parts);
  sched_options.cache_dir = options.cache_dir;
  auto scheduler = std::make_unique<Scheduler>(sched_options);

  auto base_spec = [&](std::size_t p) {
    JobSpec spec;
    spec.bench_text = texts[p];
    spec.method = options.method;
    spec.penalty_percent = options.penalty_fraction * 100.0;
    spec.time_limit_s = options.time_limit_s;
    spec.random_vectors = options.random_vectors;
    spec.seed = options.seed;
    spec.nitrided = options.nitrided;
    spec.two_point = options.two_point;
    spec.uniform_stack = options.uniform_stack;
    spec.vt_only = options.vt_only;
    return spec;
  };

  std::vector<bool> sleep(static_cast<std::size_t>(netlist.num_control_points()),
                          false);
  // Skipped cones keep all-fastest configs, which is also what a
  // state-only cone returns.
  sim::CircuitConfig config = sim::fastest_config(netlist);
  std::vector<bool> values;  // Global valuation, refreshed per batch.
  // Built at the first seed refresh, so only seeded methods pay for it.
  std::optional<sta::TimingState> timing;

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

  // --- Level-ordered sweep ---------------------------------------------
  // Votes and config copies happen in ascending partition id within each
  // ascending level: a deterministic function of the partition structure,
  // byte-identical under any worker count or job completion order.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<std::size_t>& batch = batches[b];
    if (batch.empty()) continue;
    // Level b > 0 cones see the stitched upstream context. Signals feeding
    // them are driven by partitions at levels < b, whose cones -- values
    // and timing alike -- are fully determined by the votes and configs
    // already stitched (unvoted control points default to 0, matching the
    // final forced-0 stitch).
    const bool pin = options.pin_boundaries && b > 0;
    const bool seed = seeded && b > 0;
    if (pin) values = sim::simulate(netlist, sleep);
    if (seed && (!timing || stale_gates >= seed_refresh_gates)) {
      if (!timing) timing.emplace(netlist);
      timing->analyze(config);
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
            // Every control point among a cone's inputs has a voter: this
            // cone or one swept before it.
            const int cp = cp_index[static_cast<std::size_t>(f)];
            if (cp >= 0 &&
                level[static_cast<std::size_t>(voter[static_cast<std::size_t>(cp)])] <
                    static_cast<int>(b)) {
              pins[j] = sleep[static_cast<std::size_t>(cp)] ? '1' : '0';
              any = true;
            }
          }
        }
        if (any) spec.pinned_inputs = std::move(pins);
      }
      if (seed) {
        spec.boundary_timing = boundary_timing_string(part, netlist, *timing);
      }
      jobs.push_back(scheduler->submit(spec));
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t p = batch[i];
      const opt::Partition& part = partitions[p];
      const opt::Solution sub =
          parse_cone_solution(netlist, texts[p], part, scheduler->wait(jobs[i]));
      out.solution.states_explored += sub.states_explored;
      for (std::size_t j = 0; j < part.boundary_inputs.size(); ++j) {
        const int cp = cp_index[static_cast<std::size_t>(part.boundary_inputs[j])];
        // Boundary inputs driven by other partitions carry no vote: the
        // real circuit determines them.
        if (cp >= 0 && voter[static_cast<std::size_t>(cp)] == static_cast<int>(p)) {
          sleep[static_cast<std::size_t>(cp)] = sub.sleep_vector[j];
        }
      }
      for (std::size_t k = 0; k < part.gates.size(); ++k) {
        config[static_cast<std::size_t>(part.gates[k])] = sub.config[k];
      }
      stale_gates += part.gates.size();
    }
  }

  const SchedulerStats stats = scheduler->stats();
  out.unique_solves = stats.executed;
  out.cache_hits = stats.cache.hits + stats.cache.disk_hits + stats.cache.inflight_waits;
  // The global stage below (problem build and greedy pass) is the flow's
  // memory peak, so the sweep's state goes first: the scheduler with its
  // job records, cone cache and worker pools, the cone texts and the seed
  // timing state.
  scheduler.reset();
  texts = {};
  timing.reset();

  // --- Global gate assignment ------------------------------------------
  // Per-cone delay budgets do not compose exactly, but once the sleep
  // vector is fixed the gate assignment is polynomial: one global greedy
  // pass at the stitched sleep vector settles the gates (always feasible:
  // it starts from all-fastest). Its lanes -- the independent gate
  // components -- run on the scheduler's worker count, with the same
  // result as one thread. The problem's budget is the global one. The
  // state-only baseline assigns no gates; its cones return all-fastest
  // configs, so the stitch is kept as is.
  if (options.method == "state") {
    out.budget = sta::compute_delay_budget(netlist);
    out.constraint_ps = out.budget.constraint_ps(options.penalty_fraction);
  } else {
    const opt::AssignmentProblem problem(netlist, options.penalty_fraction);
    out.budget = problem.budget();
    out.constraint_ps = problem.constraint_ps();
    opt::Solution greedy = opt::assign_gates_greedy(
        problem, sleep, opt::GateOrder::kBySavings, stats.workers);
    for (std::size_t g = 0; g < config.size(); ++g) {
      if (config[g].variant != greedy.config[g].variant ||
          config[g].mapping.logical_to_physical !=
              greedy.config[g].mapping.logical_to_physical) {
        ++out.repaired_gates;
      }
    }
    config = std::move(greedy.config);
  }
  const double delay = sta::TimingState(netlist).analyze(config);  // verify
  const double leakage = sim::circuit_leakage_from_values_na(
      netlist, config, sim::simulate(netlist, sleep));

  out.solution.sleep_vector = std::move(sleep);
  out.solution.config = std::move(config);
  out.solution.leakage_na = leakage;
  out.solution.delay_ps = delay;
  out.solution.runtime_s = timer.seconds();
  out.runtime_s = out.solution.runtime_s;
  return out;
}

}  // namespace svtox::svc
