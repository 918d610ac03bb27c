// The benchmark's workloads. Each function runs one repetition: set-up
// (library characterization, netlist construction, problem construction),
// the timed part (calls into the layer under test, nothing else), then an
// independent check of every returned solution. Per-layer probes that are
// not part of the timed part run after it, in traced runs only.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "core/solution_io.hpp"
#include "harness.hpp"
#include "liberty/library.hpp"
#include "model/tech.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "opt/gate_assign.hpp"
#include "opt/partition.hpp"
#include "opt/problem.hpp"
#include "sta/sta.hpp"
#include "svc/hier.hpp"
#include "svc/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using svtox::core::Method;
using svtox::core::StandbyOptimizer;
using svtox::liberty::Library;
using svtox::netlist::Netlist;

constexpr double kPaperPenalty = 0.05;  // Table 3's 5% column.

Library build_library(Trace& trace) {
  Scoped span(trace, "liberty.build_s");
  return Library::build(svtox::model::TechParams::nominal(), {});
}

std::vector<std::string> suite_names(Size size) {
  if (size == Size::kSmoke) return {"c432", "c499", "c880"};
  std::vector<std::string> names;
  for (const auto& spec : svtox::netlist::benchmark_suite()) names.push_back(spec.name);
  return names;
}

std::vector<Netlist> build_suite(const Library& library,
                                 const std::vector<std::string>& names, Trace& trace) {
  Scoped span(trace, "netlist.build_s");
  std::vector<Netlist> netlists;
  netlists.reserve(names.size());
  for (const std::string& name : names) {
    netlists.push_back(svtox::netlist::make_benchmark(name, library));
  }
  return netlists;
}

/// One from-scratch greedy gate assignment at `sleep_vector` (the work of
/// one state-tree leaf without the evaluator's amortized state). Its
/// leakage must reproduce the returned solution's.
void probe_leaf(const svtox::opt::AssignmentProblem& problem,
                const svtox::opt::Solution& solution, const std::string& label,
                Trace& trace, Checker& checker) {
  svtox::opt::Solution leaf;
  {
    Scoped span(trace, "opt.leaf");
    leaf = svtox::opt::assign_gates_greedy(problem, solution.sleep_vector);
  }
  checker.expect(leaf.leakage_na == solution.leakage_na,
                 label + ": from-scratch leaf greedy " + std::to_string(leaf.leakage_na) +
                     " nA != returned " + std::to_string(solution.leakage_na));
}

/// Shared body of the two flat paper flows (Table 3's Heu1 and Heu2
/// columns): one StandbyOptimizer per suite circuit, solved in turn.
RepSample run_flat(Method method, std::uint64_t seed, Size size, int rep, Trace& trace,
                   Checker& checker) {
  const bool heu2 = method == Method::kHeu2;
  RepSample sample;
  const std::vector<std::string> names = suite_names(size);

  // Heu2's leaf budgets, balanced to about 0.1 s of search per circuit on
  // a 4-core x86 host (c6288's two leaves take about 0.3 s).
  auto max_leaves = [size](const std::string& name) -> std::uint64_t {
    static const std::map<std::string, std::uint64_t> budget = {
        {"c432", 160}, {"c499", 128}, {"c880", 64}, {"c1355", 24},
        {"c1908", 32}, {"c2670", 32}, {"c3540", 12}, {"c5315", 4},
        {"c6288", 2},  {"c7552", 3},  {"alu64", 16}};
    return size == Size::kSmoke ? 2 : budget.at(name);
  };

  const auto setup_start = Clock::now();
  const Library library = build_library(trace);
  std::vector<Netlist> netlists = build_suite(library, names, trace);
  std::vector<std::unique_ptr<StandbyOptimizer>> optimizers;
  {
    Scoped span(trace, "opt.problem_s");
    for (const Netlist& netlist : netlists) {
      optimizers.push_back(std::make_unique<StandbyOptimizer>(netlist));
      optimizers.back()->problem(method, kPaperPenalty);
    }
  }
  sample.setup_s = seconds_between(setup_start, Clock::now());
  if (rep < 0) return sample;

  // The paper's baseline is the 10k-vector random average; Heu2 needs it
  // only for its reduction ratio, so it runs a token 256 vectors.
  const int vectors = size == Size::kSmoke ? 1000 : heu2 ? 256 : 10000;
  std::vector<svtox::core::MethodResult> results;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < netlists.size(); ++i) {
    const auto job_start = Clock::now();
    svtox::core::RunConfig config;
    config.penalty_fraction = kPaperPenalty;
    config.random_vectors = vectors;
    config.seed = seed;
    config.threads = 1;
    if (heu2) {
      config.max_leaves = max_leaves(names[i]);
      config.time_limit_s = 1e9;  // the leaf budget alone ends the search
    }
    {
      Scoped span(trace, "sim.baseline_s");
      optimizers[i]->average_random_leakage_ua(vectors, seed);
    }
    {
      Scoped span(trace, heu2 ? "opt.heu2_s" : "opt.heu1_s");
      results.push_back(optimizers[i]->run(method, config));  // baseline is cached
    }
    sample.job_latency_s.push_back(seconds_between(job_start, Clock::now()));
  }
  sample.wall_s = seconds_between(start, Clock::now());
  sample.cpu_s = process_cpu_s() - cpu_start;

  double leaves = 0.0;
  double nodes = 0.0;
  for (std::size_t i = 0; i < netlists.size(); ++i) {
    const svtox::opt::Solution& solution = results[i].solution;
    const svtox::opt::AssignmentProblem& problem =
        optimizers[i]->problem(method, kPaperPenalty);
    const std::string label = names[i];
    checker.expect(!solution.interrupted, label + ": search was interrupted");
    checker.expect(results[i].leakage_ua == solution.leakage_na / 1e3,
                   label + ": reported uA disagrees with the solution");
    if (heu2) {
      checker.expect(solution.states_explored == max_leaves(names[i]),
                     label + ": Heu2 did not spend exactly its leaf budget");
    }
    verify_solution(netlists[i], solution.sleep_vector, solution.config,
                    problem.constraint_ps(), solution.leakage_na, label, trace, checker);
    if (trace.enabled()) probe_leaf(problem, solution, label, trace, checker);
    sample.leakage_ua += results[i].leakage_ua;
    leaves += static_cast<double>(solution.states_explored);
    nodes += static_cast<double>(solution.nodes_visited);
  }
  sample.counts["opt.leaves"] = leaves;
  sample.counts["opt.nodes"] = nodes;
  if (trace.enabled()) sample.layers["opt.leaf_ms"] = trace.total_s("opt.leaf", rep) * 1e3;
  return sample;
}

RepSample run_paper_suite(std::uint64_t seed, Size size, int rep, Trace& trace,
                          Checker& checker) {
  return run_flat(Method::kHeu1, seed, size, rep, trace, checker);
}

RepSample run_heu2_search(std::uint64_t seed, Size size, int rep, Trace& trace,
                          Checker& checker) {
  return run_flat(Method::kHeu2, seed, size, rep, trace, checker);
}

/// Concatenates independent blocks into one netlist (signals renamed
/// b<k>_<name>); the blocks stay disconnected components.
Netlist merge_blocks(const Library& library, const std::vector<Netlist>& blocks) {
  Netlist merged("blocks", &library);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Netlist& block = blocks[b];
    // Built in steps: GCC 12 flags `"b" + std::to_string(b)` with a false
    // -Wrestrict positive.
    std::string prefix = "b";
    prefix += std::to_string(b);
    prefix += '_';
    std::vector<int> signal(static_cast<std::size_t>(block.num_signals()));
    for (int s = 0; s < block.num_signals(); ++s) {
      signal[static_cast<std::size_t>(s)] = merged.add_signal(prefix + block.signal_name(s));
    }
    for (const int input : block.primary_inputs()) {
      merged.mark_input(signal[static_cast<std::size_t>(input)]);
    }
    for (const svtox::netlist::Gate& gate : block.gates()) {
      std::vector<int> fanins;
      fanins.reserve(gate.fanins.size());
      for (const int f : gate.fanins) fanins.push_back(signal[static_cast<std::size_t>(f)]);
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

RepSample run_hier_blocks32k(std::uint64_t seed, Size size, int rep, Trace& trace,
                             Checker& checker) {
  RepSample sample;
  const bool smoke = size == Size::kSmoke;

  const auto setup_start = Clock::now();
  const Library library = build_library(trace);
  const Netlist merged = [&] {
    Scoped span(trace, "netlist.build_s");
    svtox::Rng rng(seed);
    std::vector<Netlist> blocks;
    for (const int depth : {24, 32, 40, 48}) {
      svtox::netlist::DagOptions options;
      options.num_inputs = 64;
      options.num_gates = smoke ? 1000 : 8000;
      options.target_depth = depth;
      options.max_fanout = 8;
      options.seed = rng.next_u64();
      blocks.push_back(svtox::netlist::random_dag(library, "dag" + std::to_string(depth), options));
    }
    return merge_blocks(library, blocks);
  }();
  sample.setup_s = seconds_between(setup_start, Clock::now());
  if (rep < 0) return sample;

  svtox::svc::HierOptions options;
  options.method = "heu1";
  options.penalty_fraction = kPaperPenalty;
  options.workers = 4;
  options.seed = seed;
  options.partition.max_gates = smoke ? 250 : 2000;

  svtox::svc::HierResult result;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  {
    Scoped span(trace, "svc.hier_s");
    result = svtox::svc::optimize_hierarchical(merged, options);
  }
  sample.wall_s = seconds_between(start, Clock::now());
  sample.cpu_s = process_cpu_s() - cpu_start;
  sample.job_latency_s.push_back(sample.wall_s);

  const svtox::opt::Solution& solution = result.solution;
  verify_solution(merged, solution.sleep_vector, solution.config, result.constraint_ps,
                  solution.leakage_na, "hier", trace, checker);
  checker.expect(result.partitions > 1 && result.levels > 1,
                 "hier: the merged netlist did not split into a partition DAG");
  sample.leakage_ua = solution.leakage_na / 1e3;
  sample.counts["hier.partitions"] = result.partitions;
  sample.counts["hier.levels"] = result.levels;
  sample.counts["hier.unique_solves"] = static_cast<double>(result.unique_solves);
  sample.counts["hier.cache_hits"] = static_cast<double>(result.cache_hits);
  sample.counts["hier.repaired_gates"] = result.repaired_gates;
  sample.counts["hier.refine_passes"] = result.refine_passes_run;
  sample.counts["hier.refine_accepted"] = result.refine_accepted;

  if (trace.enabled()) {
    // The serial steps of the flow, called one by one on the same input:
    // partitioning, cone text, cone and global problem set-up, and the
    // global re-assignment at the stitched sleep vector.
    std::vector<svtox::opt::Partition> partitions;
    {
      Scoped span(trace, "opt.partition_s");
      partitions = svtox::opt::partition_netlist(merged, options.partition);
    }
    std::vector<std::string> texts;
    {
      Scoped span(trace, "opt.cone_text_s");
      for (const auto& part : partitions) {
        texts.push_back(svtox::opt::canonical_bench_text(merged, part));
      }
    }
    {
      Scoped span(trace, "opt.problem_s");
      for (const std::string& text : texts) {
        const Netlist cone = svtox::netlist::read_bench(text, "cone", library);
        const svtox::opt::AssignmentProblem problem(cone, kPaperPenalty);
      }
    }
    std::unique_ptr<svtox::opt::AssignmentProblem> global;
    {
      Scoped span(trace, "opt.global_problem_s");
      global = std::make_unique<svtox::opt::AssignmentProblem>(merged, kPaperPenalty);
    }
    {
      Scoped span(trace, "opt.global_reassign_s");
      svtox::opt::assign_gates_greedy(*global, solution.sleep_vector);
    }
    checker.expect(static_cast<int>(partitions.size()) == result.partitions,
                   "hier: partition probe disagrees with the flow's partition count");
  }
  return sample;
}

/// One job of the service mix.
struct MixJob {
  int spec = 0;  ///< Index into the distinct specs.
  Clock::time_point submit_start, submit_end, done;
  svtox::svc::JobResult result;
};

RepSample run_service_mix(std::uint64_t seed, Size size, int rep, Trace& trace,
                          Checker& checker) {
  RepSample sample;
  const std::vector<std::string> names = suite_names(size);
  const int clients = 4;
  // Per circuit: one penalty per 1.5%-wide stratum from 2%, with a seeded
  // offset of 0-0.4% inside it, and a second submission of two strata in
  // every three (which two is a seeded phase): 15 + 10 jobs per circuit,
  // 40% repeats. Stratifying both draws keeps the summed leakage and the
  // work nearly the same across seeds.
  const int strata = size == Size::kSmoke ? 4 : 15;

  svtox::Rng rng(seed);
  std::vector<svtox::svc::JobSpec> specs;
  std::vector<int> spec_circuit;
  std::vector<MixJob> jobs;
  for (std::size_t c = 0; c < names.size(); ++c) {
    const int phase = static_cast<int>(rng.next_below(3));
    for (int k = 0; k < strata; ++k) {
      svtox::svc::JobSpec spec;
      spec.circuit = names[c];
      spec.method = "heu1";
      spec.penalty_percent = 2.0 + 1.5 * k + 0.1 * static_cast<double>(rng.next_below(5));
      spec.random_vectors = 256;
      spec.seed = seed;
      const int id = static_cast<int>(specs.size());
      specs.push_back(spec);
      spec_circuit.push_back(static_cast<int>(c));
      jobs.push_back(MixJob{id, {}, {}, {}, {}});
      if ((k + phase) % 3 != 2) jobs.push_back(MixJob{id, {}, {}, {}, {}});
    }
  }
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[rng.next_below(i + 1)]);
  }

  // The scheduler's resource pool builds the library and netlists inside
  // the first job of each circuit, so they are part of the timed part and
  // the set-up is the scheduler's construction alone.
  const auto setup_start = Clock::now();
  svtox::svc::Scheduler::Options scheduler_options;
  scheduler_options.workers = 2;  // fewer workers than clients: jobs queue
  // One optimizer context per suite circuit and worker, as a batch over the
  // suite would size it: no LRU eviction, so the contexts (and memory) a
  // run builds depend on the job set, not on which worker ran what.
  scheduler_options.contexts_per_worker = 16;
  auto scheduler = std::make_unique<svtox::svc::Scheduler>(scheduler_options);
  sample.setup_s = seconds_between(setup_start, Clock::now());
  if (rep < 0) return sample;

  // Closed loop: client t owns jobs t, t + clients, ... and submits its
  // next job only after the previous one returned.
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  std::atomic<bool> client_error{false};
  std::vector<std::jthread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t j = static_cast<std::size_t>(t); j < jobs.size();
             j += static_cast<std::size_t>(clients)) {
          MixJob& job = jobs[j];
          job.submit_start = Clock::now();
          const svtox::svc::JobId id = scheduler->submit(specs[static_cast<std::size_t>(job.spec)]);
          job.submit_end = Clock::now();
          job.result = scheduler->wait(id);
          job.done = Clock::now();
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: service client %d: %s\n", t, e.what());
        client_error = true;
      }
    });
  }
  threads.clear();  // joins
  const auto end = Clock::now();
  sample.wall_s = seconds_between(start, end);
  sample.cpu_s = process_cpu_s() - cpu_start;
  const svtox::svc::SchedulerStats stats = scheduler->stats();
  scheduler.reset();
  checker.expect(!client_error, "service: a client failed to submit or wait");
  if (client_error) return sample;

  // Checks: every executed job independently verified against the
  // benchmark's own library and netlists, built here, untimed; every
  // cache-served job byte-identical to the executed solve of its spec.
  const Library library = Library::build(svtox::model::TechParams::nominal(), {});
  std::vector<Netlist> netlists;
  for (const std::string& name : names) {
    netlists.push_back(svtox::netlist::make_benchmark(name, library));
  }
  std::vector<const MixJob*> solved(specs.size(), nullptr);
  for (const MixJob& job : jobs) {
    if (job.result.status == svtox::svc::JobStatus::kDone && !job.result.cache_hit) {
      checker.expect(solved[static_cast<std::size_t>(job.spec)] == nullptr,
                     "service: a spec was solved twice");
      solved[static_cast<std::size_t>(job.spec)] = &job;
    }
  }
  std::vector<svtox::sta::DelayBudget> budgets;
  for (const Netlist& netlist : netlists) {
    budgets.push_back(svtox::sta::compute_delay_budget(netlist));
  }
  std::vector<double> submit_us, solve_ms, overhead_ms, hit_ms;
  double solve_s = 0.0;
  double leaves = 0.0;
  for (const MixJob& job : jobs) {
    const svtox::svc::JobResult& r = job.result;
    const svtox::svc::JobSpec& spec = specs[static_cast<std::size_t>(job.spec)];
    const std::string label = spec.circuit + "@" + std::to_string(spec.penalty_percent) + "%";
    const bool done = r.status == svtox::svc::JobStatus::kDone && !r.interrupted;
    checker.expect(done, label + ": job did not complete: " + r.error);
    if (!done) continue;
    const double latency_s = seconds_between(job.submit_start, job.done);
    sample.job_latency_s.push_back(latency_s);
    submit_us.push_back(seconds_between(job.submit_start, job.submit_end) * 1e6);
    sample.leakage_ua += r.leakage_ua;
    leaves += static_cast<double>(r.states_explored);
    const MixJob* first = solved[static_cast<std::size_t>(job.spec)];
    if (r.cache_hit) {
      hit_ms.push_back(latency_s * 1e3);
      checker.expect(first != nullptr && r.solution_text == first->result.solution_text &&
                         r.leakage_ua == first->result.leakage_ua &&
                         r.delay_ps == first->result.delay_ps,
                     label + ": cache-served result differs from the first solve");
      continue;
    }
    solve_s += r.runtime_s;
    solve_ms.push_back(r.runtime_s * 1e3);
    overhead_ms.push_back((latency_s - r.runtime_s) * 1e3);
    const std::size_t c = static_cast<std::size_t>(spec_circuit[static_cast<std::size_t>(job.spec)]);
    try {
      const svtox::opt::Solution solution =
          svtox::core::read_solution(r.solution_text, netlists[c]);
      verify_solution(netlists[c], solution.sleep_vector, solution.config,
                      budgets[c].constraint_ps(spec.penalty_percent / 100.0),
                      r.leakage_ua * 1e3, label, trace, checker);
    } catch (const std::exception& e) {
      checker.expect(false, label + ": unreadable solution: " + e.what());
    }
  }
  const double hits = static_cast<double>(stats.cache.hits + stats.cache.disk_hits);
  const double misses = static_cast<double>(stats.cache.misses);
  checker.expect(misses == static_cast<double>(specs.size()) &&
                     stats.executed == specs.size(),
                 "service: expected one solve per distinct spec");
  sample.counts["svc.cache_hits"] = hits;
  sample.counts["svc.cache_misses"] = misses;
  sample.counts["svc.executed"] = static_cast<double>(stats.executed);
  sample.counts["opt.leaves"] = leaves;
  if (trace.enabled()) {
    sample.layers["svc.submit_us_p50"] = median(submit_us);
    sample.layers["svc.solve_ms_p50"] = median(solve_ms);
    sample.layers["svc.solve_ms_p95"] = quantile(solve_ms, 0.95);
    sample.layers["svc.overhead_ms_p50"] = median(overhead_ms);
    sample.layers["svc.overhead_ms_p95"] = quantile(overhead_ms, 0.95);
    sample.layers["svc.hit_ms_p50"] = median(hit_ms);
    sample.layers["svc.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    sample.layers["opt.heu1_s"] = solve_s;
  }
  return sample;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_suite", run_paper_suite},
      {"heu2_search", run_heu2_search},
      {"hier_blocks32k", run_hier_blocks32k},
      {"service_mix", run_service_mix},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"liberty.build_s", "s"},       {"netlist.build_s", "s"},
      {"opt.problem_s", "s"},         {"opt.heu1_s", "s"},
      {"opt.heu2_s", "s"},            {"opt.leaves", "count"},
      {"opt.nodes", "count"},         {"opt.leaf_ms", "ms"},
      {"sim.baseline_s", "s"},        {"svc.hier_s", "s"},
      {"opt.partition_s", "s"},       {"opt.cone_text_s", "s"},
      {"opt.global_problem_s", "s"},  {"opt.global_reassign_s", "s"},
      {"sta.analyze_s", "s"},         {"sim.simulate_s", "s"},
      {"hier.partitions", "count"},   {"hier.levels", "count"},
      {"hier.unique_solves", "count"}, {"hier.cache_hits", "count"},
      {"hier.repaired_gates", "count"}, {"hier.refine_passes", "count"},
      {"hier.refine_accepted", "count"}, {"svc.submit_us_p50", "us"},
      {"svc.solve_ms_p50", "ms"},     {"svc.solve_ms_p95", "ms"},
      {"svc.overhead_ms_p50", "ms"},  {"svc.overhead_ms_p95", "ms"},
      {"svc.hit_ms_p50", "ms"},       {"svc.cache_hits", "count"},
      {"svc.cache_misses", "count"},  {"svc.executed", "count"},
      {"svc.hit_rate", "ratio"},
  };
  return all;
}

}  // namespace perfbench
