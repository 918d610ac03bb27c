// svtox command-line driver.
//
//   svtox characterize [-o lib.svlib] [--two-point] [--uniform-stack]
//                      [--vt-only] [--nitrided]
//   svtox optimize   (--bench file.bench | --circuit NAME)
//                    [--penalty PCT] [--method heu1|heu2|state|vtstate|exact]
//                    [--time-limit SEC] [--threads N] [--no-reorder]
//                    [--max-leaves N] [--checkpoint FILE]
//                    [--checkpoint-every SEC] [-o solution.txt]
//   svtox sweep      (--bench file.bench | --circuit NAME)
//                    [--penalties 0,2,5,10,25] [--threads N]
//                    [--cache-dir DIR] [-o curve.txt]
//   svtox suite      [--penalty PCT] [--time-limit SEC] [--threads N]
//                    [--cache-dir DIR]
//   svtox batch      --manifest FILE (--socket PATH | --tcp HOST:PORT | --local)
//                    [--workers N] [--cache-dir DIR] [--output-dir DIR]
//   svtox stats      (--socket PATH | --tcp HOST:PORT) [--prometheus]
//                    [--timeout SEC]
//   svtox cmd        (--socket PATH | --tcp HOST:PORT) --json '{"cmd":...}'
//                    [--timeout SEC]
//   svtox hier       (--bench file.bench | --circuit NAME | --scale PRESET)
//                    [--penalty PCT] [--method heu1|heu2|exact|state]
//                    [--max-gates N] [--threads N] [--cache-dir DIR]
//                    [--time-limit SEC]
//                    [--no-pin-boundaries] [--no-seed-boundary]
//                    [--compare-flat] [--max-gap RATIO] [-o solution.txt]
//   svtox verify     (--bench file.bench | --circuit NAME) --solution FILE
//   svtox timing     (--bench file.bench | --circuit NAME)
//                    [--solution FILE] [--required PS]
//
// `optimize --method sa` runs the simulated-annealing alternative;
// `characterize -o name.lib` exports industry Liberty syntax.
//
// `--circuit NAME` picks one of the paper's benchmark stand-ins (c432 ...
// alu64); `--bench` reads an ISCAS-85 netlist from disk.
//
// `hier` runs the partitioned hierarchical flow (opt/partition.hpp +
// svc/hier.hpp) for circuits too large for the flat state tree; `--scale
// PRESET` builds one of the 10k..1M-gate generated circuits
// (netlist::scale_circuit_names()), `--max-gates` caps the partition size
// and `--compare-flat` also runs flat Heu1 and prints the leakage gap.
// `--method vtstate` is rejected (the final global gate pass runs over the
// circuit's own library); `--vt-only --method heu2` is the Vt+state baseline.
// `--no-pin-boundaries` / `--no-seed-boundary` disable the boundary-aware
// level sweep's pins and timing seeds (the legacy free-boundary
// relaxation), and `--max-gap RATIO` (with `--compare-flat`) exits
// with code 4 when hier/flat leakage exceeds RATIO -- the quality gate CI
// and bench_scale run.
//
// `sweep` and `suite` run their jobs through the svc::Scheduler, so
// `--threads N` solves independent rows concurrently and `--cache-dir`
// keeps solved instances across invocations. `batch` feeds a JSON manifest
// (an array of job objects, or one object per line) either to a running
// svtoxd daemon (`--socket PATH` for the Unix transport, `--tcp HOST:PORT`
// for the framed TCP transport) or to an in-process scheduler (`--local`),
// streaming one JSON result line per job; options per job are documented
// in src/svc/job.hpp. `stats` queries a running daemon: by default the
// stats JSON (job counters, per-shard cache hit/miss/inflight/eviction
// counts, distributed-cache, cluster-health and network counters), with
// `--prometheus` the same numbers in Prometheus text exposition format.
// Both `stats` and `cmd` bound their whole connect+request under
// `--timeout` (default 2s/10s), so pointing them at a dead daemon fails
// fast with a clean error instead of hanging in reconnect backoff.
//
// `cmd` sends one raw JSON request verbatim and prints the reply -- the
// operator/chaos control plane for requests without a dedicated
// subcommand (`failpoints`, `cluster_reload`, `adopt_jobs`, `ping`).
//
// `batch` against a daemon survives a daemon crash or restart: on a lost
// connection it reconnects (bounded retry) and resubmits every
// uncollected job. Server-side checkpoints and coordinator job ledgers
// make those resubmissions resume rather than restart.
#include <sys/stat.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.hpp"
#include "core/solution_io.hpp"
#include "liberty/lib_format.hpp"
#include "liberty/serialize.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/benchmarks.hpp"
#include "opt/annealing.hpp"
#include "report/report.hpp"
#include "sta/sta.hpp"
#include "sta/timing_report.hpp"
#include "netlist/generators.hpp"
#include "opt/state_search.hpp"
#include "svc/client.hpp"
#include "svc/hier.hpp"
#include "svc/scheduler.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace svtox;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: svtox <characterize|optimize|hier|sweep|suite|batch|stats|"
               "cmd|verify|timing> [options]\n"
               "see the header of tools/svtox_cli.cpp or README.md for details\n");
  return 2;
}

/// The exact option vocabulary of each command; anything else is a spelling
/// mistake the user should hear about (exit 2), not a silently ignored key.
const std::map<std::string, std::set<std::string>>& allowed_options() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"characterize", {"output", "two-point", "uniform-stack", "vt-only", "nitrided"}},
      {"optimize",
       {"bench", "circuit", "penalty", "method", "time-limit", "threads",
        "no-reorder", "max-leaves", "checkpoint", "checkpoint-every", "output",
        "two-point", "uniform-stack", "vt-only", "nitrided"}},
      {"sweep",
       {"bench", "circuit", "penalties", "threads", "cache-dir", "output",
        "two-point", "uniform-stack", "vt-only", "nitrided"}},
      {"suite",
       {"penalty", "time-limit", "threads", "cache-dir", "two-point",
        "uniform-stack", "vt-only", "nitrided"}},
      {"batch",
       {"manifest", "socket", "tcp", "local", "workers", "cache-dir", "output-dir"}},
      {"stats", {"socket", "tcp", "prometheus", "timeout"}},
      {"cmd", {"socket", "tcp", "json", "timeout"}},
      {"hier",
       {"bench", "circuit", "scale", "penalty", "method", "max-gates", "threads",
        "cache-dir", "time-limit", "compare-flat", "max-gap", "no-pin-boundaries",
        "no-seed-boundary", "output", "two-point", "uniform-stack", "vt-only",
        "nitrided"}},
      {"verify",
       {"bench", "circuit", "solution", "two-point", "uniform-stack", "vt-only",
        "nitrided"}},
      {"timing",
       {"bench", "circuit", "solution", "required", "two-point", "uniform-stack",
        "vt-only", "nitrided"}},
  };
  return kAllowed;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
    } else if (key == "-o") {
      key = "output";
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      std::exit(2);
    }
    // Flags without values.
    if (key == "two-point" || key == "uniform-stack" || key == "vt-only" ||
        key == "nitrided" || key == "no-reorder" || key == "local" ||
        key == "compare-flat" || key == "prometheus" ||
        key == "no-pin-boundaries" || key == "no-seed-boundary") {
      args.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      std::exit(2);
    }
    args.options[key] = argv[++i];
  }
  // Strict per-command validation: reject unknown options.
  auto allowed = allowed_options().find(args.command);
  if (allowed != allowed_options().end()) {
    for (const auto& [key, value] : args.options) {
      (void)value;
      if (allowed->second.count(key) == 0) {
        std::fprintf(stderr, "unknown option '--%s' for 'svtox %s'\n", key.c_str(),
                     args.command.c_str());
        std::exit(usage());
      }
    }
  }
  return args;
}

const model::TechParams& tech_for(const Args& args) {
  return args.has("nitrided") ? model::TechParams::nitrided()
                              : model::TechParams::nominal();
}

liberty::Library build_library(const Args& args) {
  liberty::LibraryOptions options;
  options.variant_options.four_point = !args.has("two-point");
  options.variant_options.uniform_stack = args.has("uniform-stack");
  options.variant_options.vt_only = args.has("vt-only");
  return liberty::Library::build(tech_for(args), options);
}

netlist::Netlist load_circuit(const Args& args, const liberty::Library& library) {
  if (args.has("bench")) return netlist::read_bench_file(args.get("bench"), library);
  const std::string name = args.get("circuit", "c432");
  return netlist::make_benchmark(name, library);
}

/// Library knobs + circuit source of a scheduler job, from the CLI flags.
svc::JobSpec base_spec(const Args& args) {
  svc::JobSpec spec;
  spec.nitrided = args.has("nitrided");
  spec.two_point = args.has("two-point");
  spec.uniform_stack = args.has("uniform-stack");
  spec.vt_only = args.has("vt-only");
  if (args.has("bench")) {
    spec.bench_path = args.get("bench");
  } else {
    spec.circuit = args.get("circuit", "c432");
  }
  return spec;
}

svc::Scheduler::Options scheduler_options(const Args& args) {
  svc::Scheduler::Options options;
  options.workers = static_cast<int>(parse_double(args.get("threads", "1")));
  options.cache_dir = args.get("cache-dir");
  return options;
}

int cmd_characterize(const Args& args) {
  const liberty::Library library = build_library(args);
  const std::string path = args.get("output", "svtox_library.svlib");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  // Liberty (.lib) syntax when the output name asks for it; otherwise the
  // dense .svlib round-trip format.
  if (path.size() > 4 && path.substr(path.size() - 4) == ".lib") {
    liberty::write_liberty_format(library, out);
  } else {
    liberty::write_library(library, out);
  }
  std::printf("characterized %d cells (%d versions) -> %s\n",
              static_cast<int>(library.cells().size()), library.total_versions(),
              path.c_str());
  return 0;
}

core::Method method_from(const std::string& name) {
  if (name == "heu1") return core::Method::kHeu1;
  if (name == "heu2") return core::Method::kHeu2;
  if (name == "state") return core::Method::kStateOnly;
  if (name == "vtstate") return core::Method::kVtState;
  if (name == "exact") return core::Method::kExact;
  std::fprintf(stderr, "unknown method '%s'\n", name.c_str());
  std::exit(2);
}

int run_annealing(const Args& args, const netlist::Netlist& circuit,
                  const core::RunConfig& config) {
  const opt::AssignmentProblem problem(circuit, config.penalty_fraction);
  opt::AnnealingOptions sa;
  sa.time_limit_s = config.time_limit_s;
  const opt::Solution sol = opt::simulated_annealing(problem, sa);
  std::printf("%s: simulated annealing -> %.3f uA, delay %.0f ps (%llu moves)\n",
              circuit.name().c_str(), sol.leakage_na / 1e3, sol.delay_ps,
              static_cast<unsigned long long>(sol.states_explored));
  if (args.has("output")) {
    std::ofstream out(args.get("output"));
    core::write_solution(sol, circuit, out);
  }
  return 0;
}

/// First Ctrl-C asks the search to stop (it checkpoints and returns the
/// best-so-far solution); the handler then re-arms SIG_DFL so a second
/// Ctrl-C kills the process the usual way.
std::atomic<bool> g_interrupt{false};

void on_interrupt(int sig) {
  g_interrupt.store(true);
  std::signal(sig, SIG_DFL);
}

int cmd_optimize(const Args& args) {
  const liberty::Library library = build_library(args);
  const netlist::Netlist circuit = load_circuit(args, library);
  core::StandbyOptimizer optimizer(circuit);

  core::RunConfig config;
  config.penalty_fraction = parse_double(args.get("penalty", "5")) / 100.0;
  config.time_limit_s = parse_double(args.get("time-limit", "5"));
  // 1 = serial, 0 = all hardware threads (state-tree root split).
  config.threads = static_cast<int>(parse_double(args.get("threads", "1")));
  config.max_leaves =
      static_cast<std::uint64_t>(parse_double(args.get("max-leaves", "0")));
  if (args.has("checkpoint")) {
    config.checkpoint_path = args.get("checkpoint");
    config.checkpoint_every_s = parse_double(args.get("checkpoint-every", "5"));
    config.cancel = &g_interrupt;
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);
  }
  if (args.get("method") == "sa") return run_annealing(args, circuit, config);
  const core::Method method = method_from(args.get("method", "heu2"));

  if (args.has("no-reorder")) {
    // The ablation path goes through the problem API directly.
    opt::ProblemOptions popts;
    popts.use_pin_reorder = false;
    const opt::AssignmentProblem problem(circuit, config.penalty_fraction, popts);
    const opt::Solution sol = method == core::Method::kHeu1
                                  ? opt::heuristic1(problem)
                                  : opt::heuristic2(problem, config.time_limit_s);
    std::printf("%s (no pin reorder): %.3f uA, delay %.0f ps\n",
                circuit.name().c_str(), sol.leakage_na / 1e3, sol.delay_ps);
    if (args.has("output")) {
      std::ofstream out(args.get("output"));
      core::write_solution(sol, circuit, out);
    }
    return 0;
  }

  const core::MethodResult result = optimizer.run(method, config);
  std::printf("%s: %s -> %.3f uA (%.1fX vs random-average), delay %.0f ps, %s\n",
              circuit.name().c_str(), core::to_string(method),
              result.leakage_ua, result.reduction_x, result.solution.delay_ps,
              report::format_seconds(result.runtime_s).c_str());
  if (result.solution.interrupted && !config.checkpoint_path.empty()) {
    std::printf("interrupted; progress saved to %s (rerun to resume)\n",
                config.checkpoint_path.c_str());
  }

  if (args.has("output")) {
    const std::string path = args.get("output");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    core::write_solution(result.solution, circuit, out);
    std::printf("solution written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_hier(const Args& args) {
  const liberty::Library library = build_library(args);
  const netlist::Netlist circuit =
      args.has("scale") ? netlist::make_scale_circuit(library, args.get("scale"))
                        : load_circuit(args, library);

  svc::HierOptions options;
  options.partition.max_gates =
      static_cast<int>(parse_double(args.get("max-gates", "2000")));
  options.method = args.get("method", "heu1");
  options.penalty_fraction = parse_double(args.get("penalty", "5")) / 100.0;
  options.workers = static_cast<int>(parse_double(args.get("threads", "0")));
  options.time_limit_s = parse_double(args.get("time-limit", "1"));
  options.cache_dir = args.get("cache-dir");
  options.nitrided = args.has("nitrided");
  options.two_point = args.has("two-point");
  options.uniform_stack = args.has("uniform-stack");
  options.vt_only = args.has("vt-only");
  options.pin_boundaries = !args.has("no-pin-boundaries");
  options.seed_boundary_timing = !args.has("no-seed-boundary");
  if (args.has("max-gap") && !args.has("compare-flat")) {
    std::fprintf(stderr, "--max-gap requires --compare-flat\n");
    return 2;
  }

  const svc::HierResult hr = svc::optimize_hierarchical(circuit, options);
  std::printf("%s: %d gates, %d partitions (max %d gates each, %d levels)\n",
              circuit.name().c_str(), circuit.num_gates(), hr.partitions,
              options.partition.max_gates, hr.levels);
  std::printf("cone jobs: %llu solved, %llu from cache\n",
              static_cast<unsigned long long>(hr.unique_solves),
              static_cast<unsigned long long>(hr.cache_hits));
  std::printf("hier %s: %.3f uA, delay %.0f ps (constraint %.0f ps, "
              "global pass changed %d gates), %s\n",
              options.method.c_str(), hr.solution.leakage_na / 1e3,
              hr.solution.delay_ps, hr.constraint_ps, hr.repaired_gates,
              report::format_seconds(hr.runtime_s).c_str());

  int gap_status = 0;
  if (args.has("compare-flat")) {
    const opt::AssignmentProblem problem(circuit, options.penalty_fraction);
    const opt::Solution flat = opt::heuristic1(problem);
    const double ratio = hr.solution.leakage_na / flat.leakage_na;
    std::printf("flat heu1: %.3f uA, delay %.0f ps, %s (hier gap %+.1f%%)\n",
                flat.leakage_na / 1e3, flat.delay_ps,
                report::format_seconds(flat.runtime_s).c_str(),
                100.0 * (ratio - 1.0));
    if (args.has("max-gap")) {
      const double max_gap = parse_double(args.get("max-gap"));
      if (ratio > max_gap) {
        std::fprintf(stderr,
                     "FAIL: hier/flat leakage ratio %.4f exceeds --max-gap %.4f\n",
                     ratio, max_gap);
        gap_status = 4;
      } else {
        std::printf("gap check passed: ratio %.4f <= %.4f\n", ratio, max_gap);
      }
    }
  }

  if (args.has("output")) {
    const std::string path = args.get("output");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    core::write_solution(hr.solution, circuit, out);
    std::printf("solution written to %s\n", path.c_str());
  }
  return gap_status;
}

int cmd_sweep(const Args& args) {
  std::vector<double> penalties;  // percent
  for (auto part : split(args.get("penalties", "0,2,5,10,25,50,100"), ',')) {
    penalties.push_back(parse_double(part));
  }

  // Rows are independent jobs: --threads workers solve them concurrently
  // and --cache-dir makes repeated sweeps free.
  svc::Scheduler scheduler(scheduler_options(args));
  std::vector<svc::JobId> ids;
  for (double p : penalties) {
    svc::JobSpec spec = base_spec(args);
    spec.method = "heu1";
    spec.penalty_percent = p;
    ids.push_back(scheduler.submit(spec));
  }

  AsciiTable table;
  table.set_header({"penalty %", "heu1 uA", "X", "delay ps"});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const svc::JobResult result = scheduler.wait(ids[i]);
    if (result.status != svc::JobStatus::kDone) {
      std::fprintf(stderr, "error: %s\n", result.error.c_str());
      return 1;
    }
    table.add_row({format_double(penalties[i], 0), report::format_ua(result.leakage_ua),
                   report::format_x(result.reduction_x),
                   format_double(result.delay_ps, 0)});
  }
  std::printf("%s", table.render().c_str());
  if (args.has("output")) report::save_table(table, args.get("output"));
  return 0;
}

int cmd_suite(const Args& args) {
  const double penalty = parse_double(args.get("penalty", "5"));
  const double time_limit = parse_double(args.get("time-limit", "1"));

  // Two jobs per circuit (random-average baseline + Heu1) through the
  // scheduler: the library is characterized once in the shared pool and
  // circuits run concurrently under --threads.
  svc::Scheduler scheduler(scheduler_options(args));
  std::vector<std::pair<svc::JobId, svc::JobId>> ids;
  for (const auto& spec : netlist::benchmark_suite()) {
    svc::JobSpec job = base_spec(args);
    job.circuit = spec.name;
    job.penalty_percent = penalty;
    job.time_limit_s = time_limit;
    job.method = "average";
    const svc::JobId avg = scheduler.submit(job);
    job.method = "heu1";
    ids.emplace_back(avg, scheduler.submit(job));
  }

  AsciiTable table;
  table.set_header({"circuit", "gates", "avg uA", "heu1 uA", "X", "heu1 time"});
  for (const auto& [avg_id, h1_id] : ids) {
    const svc::JobResult avg = scheduler.wait(avg_id);
    const svc::JobResult h1 = scheduler.wait(h1_id);
    if (avg.status != svc::JobStatus::kDone || h1.status != svc::JobStatus::kDone) {
      std::fprintf(stderr, "error: %s\n",
                   (avg.status != svc::JobStatus::kDone ? avg : h1).error.c_str());
      return 1;
    }
    table.add_row({h1.circuit, std::to_string(h1.gates),
                   report::format_ua(avg.leakage_ua), report::format_ua(h1.leakage_ua),
                   report::format_x(h1.reduction_x),
                   report::format_seconds(h1.runtime_s)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Parses a batch manifest: a JSON array of job objects, or NDJSON with one
/// object per line (blank and #-comment lines skipped).
std::vector<svc::JobSpec> read_manifest(const std::string& path) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) throw ContractError("cannot read manifest '" + path + "'");
    in = &file;
  }
  std::ostringstream buffer;
  buffer << in->rdbuf();
  const std::string text = buffer.str();

  std::vector<svc::JobSpec> specs;
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) throw ContractError("manifest is empty");
  if (text[first] == '[') {
    const svc::Json manifest = svc::Json::parse(text);
    for (const svc::Json& job : manifest.as_array()) {
      specs.push_back(svc::job_spec_from_json(job));
    }
  } else {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      specs.push_back(svc::job_spec_from_json(svc::Json::parse(line)));
    }
  }
  if (specs.empty()) throw ContractError("manifest has no jobs");
  return specs;
}

/// Output file name for one batch job's solution.
std::string solution_name(const svc::JobResult& result, std::size_t index) {
  std::string name = result.label;
  if (name.empty()) {
    name = result.circuit + "_" + result.method + "_p" +
           format_double(result.penalty_percent, 0);
  }
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_' &&
        c != '.') {
      c = '_';
    }
  }
  return "job" + std::to_string(index + 1) + "_" + name + ".solution";
}

/// Daemon address from the transport flags: `--socket PATH` (Unix NDJSON;
/// a "tcp://..." value also works) or `--tcp HOST:PORT` (framed TCP).
/// Empty when neither was given.
std::string daemon_address(const Args& args) {
  if (args.has("tcp")) return "tcp://" + args.get("tcp");
  return args.get("socket");
}

int cmd_batch(const Args& args) {
  if (!args.has("manifest")) {
    std::fprintf(stderr, "batch requires --manifest FILE (use '-' for stdin)\n");
    return 2;
  }
  const int sources =
      (args.has("socket") ? 1 : 0) + (args.has("tcp") ? 1 : 0) + (args.has("local") ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "batch needs exactly one of --socket PATH, --tcp HOST:PORT or --local\n");
    return 2;
  }
  const std::vector<svc::JobSpec> specs = read_manifest(args.get("manifest"));
  const std::string output_dir = args.get("output-dir");
  if (!output_dir.empty()) ::mkdir(output_dir.c_str(), 0777);

  // Any transport yields the same submit-all / collect-in-order loop.
  std::optional<svc::Client> client;
  std::optional<svc::Scheduler> scheduler;
  if (!args.has("local")) {
    client.emplace(daemon_address(args));
  } else {
    svc::Scheduler::Options options;
    options.workers = static_cast<int>(parse_double(args.get("workers", "0")));
    options.cache_dir = args.get("cache-dir");
    scheduler.emplace(options);
  }

  std::vector<std::uint64_t> ids;
  ids.reserve(specs.size());
  for (const svc::JobSpec& spec : specs) {
    ids.push_back(client ? client->submit(spec) : scheduler->submit(spec));
  }

  // Failover: a crashed/restarted daemon loses our connection AND our job
  // ids. Reconnect (bounded) and resubmit every uncollected job --
  // server-side checkpoints and coordinator ledgers turn the resubmission
  // into a resume, not a restart.
  auto resubmit_from = [&](std::size_t from) -> bool {
    for (int attempt = 0; attempt < 30; ++attempt) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      try {
        svc::ClientOptions reconnect_options;
        reconnect_options.connect_timeout_s = 2.0;
        client.emplace(daemon_address(args), reconnect_options);
        for (std::size_t j = from; j < specs.size(); ++j) {
          ids[j] = client->submit(specs[j]);
        }
        return true;
      } catch (const std::exception&) {
        client.reset();
      }
    }
    return false;
  };

  int failures = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    svc::JobResult result;
    if (client) {
      for (int tries = 0;; ++tries) {
        try {
          result = client->result(ids[i]);
          break;
        } catch (const Error& e) {
          if (tries >= 2) throw;
          std::fprintf(stderr,
                       "batch: daemon connection lost (%s); resubmitting %zu "
                       "uncollected job(s)\n",
                       e.what(), specs.size() - i);
          if (!resubmit_from(i)) throw;
        }
      }
    } else {
      result = scheduler->wait(ids[i]);
    }
    if (result.status != svc::JobStatus::kDone) ++failures;
    if (!output_dir.empty() && !result.solution_text.empty()) {
      const std::string path = output_dir + "/" + solution_name(result, i);
      std::ofstream out(path);
      out << result.solution_text;
    }
    // One NDJSON record per job, in manifest order, solutions elided (they
    // land in --output-dir).
    svc::Json line = svc::job_result_to_json(result, /*include_solution=*/false);
    line.set("job", ids[i]);
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_stats(const Args& args) {
  if (args.has("socket") == args.has("tcp")) {
    std::fprintf(stderr, "stats needs exactly one of --socket PATH or --tcp HOST:PORT\n");
    return 2;
  }
  // Interactive probe: fail fast against a dead daemon (clean error, exit
  // 1) instead of sitting in reconnect backoff.
  svc::ClientOptions options;
  options.connect_timeout_s = 1.0;
  options.total_deadline_s = parse_double(args.get("timeout", "2"));
  svc::Client client(daemon_address(args), options);
  if (args.has("prometheus")) {
    // Scrape-ready text: what a Prometheus exporter sidecar would relay.
    svc::Json request = svc::Json::object();
    request.set("cmd", std::string("metrics"));
    const svc::Json reply = client.request(request);
    const svc::Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool(false)) {
      const svc::Json* error = reply.get("error");
      std::fprintf(stderr, "error: %s\n",
                   error != nullptr ? error->as_string().c_str() : "malformed reply");
      return 1;
    }
    const svc::Json* metrics = reply.get("metrics");
    std::printf("%s", metrics != nullptr ? metrics->as_string().c_str() : "");
    return 0;
  }
  std::printf("%s\n", client.stats().dump().c_str());
  return 0;
}

int cmd_raw(const Args& args) {
  if (args.has("socket") == args.has("tcp")) {
    std::fprintf(stderr, "cmd needs exactly one of --socket PATH or --tcp HOST:PORT\n");
    return 2;
  }
  if (!args.has("json")) {
    std::fprintf(stderr, "cmd requires --json '{\"cmd\":...}'\n");
    return 2;
  }
  svc::ClientOptions options;
  options.connect_timeout_s = 2.0;
  options.total_deadline_s = parse_double(args.get("timeout", "10"));
  svc::Client client(daemon_address(args), options);
  const svc::Json reply = client.request(svc::Json::parse(args.get("json")));
  std::printf("%s\n", reply.dump().c_str());
  const svc::Json* ok = reply.get("ok");
  return ok != nullptr && ok->as_bool(false) ? 0 : 1;
}

int cmd_timing(const Args& args) {
  const liberty::Library library = build_library(args);
  const netlist::Netlist circuit = load_circuit(args, library);

  sim::CircuitConfig config = sim::fastest_config(circuit);
  if (args.has("solution")) {
    std::ifstream in(args.get("solution"));
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", args.get("solution").c_str());
      return 1;
    }
    config = core::read_solution(in, circuit).config;
  }

  sta::TimingState timing(circuit);
  const double delay = timing.analyze(config);
  const double required =
      args.has("required") ? parse_double(args.get("required")) : delay;

  std::printf("%s", sta::render_worst_path(circuit, config).c_str());
  const sta::SlackAnalysis slack(circuit, config, required);
  std::printf("\nworst slack vs %.0f ps requirement: %.1f ps\n", required,
              slack.worst_slack_ps());
  std::printf("slack histogram (8 bins, critical first):");
  for (int c : slack.histogram(8)) std::printf(" %d", c);
  std::printf("\n");
  return 0;
}

int cmd_verify(const Args& args) {
  const liberty::Library library = build_library(args);
  const netlist::Netlist circuit = load_circuit(args, library);
  if (!args.has("solution")) {
    std::fprintf(stderr, "verify requires --solution FILE\n");
    return 2;
  }
  std::ifstream in(args.get("solution"));
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", args.get("solution").c_str());
    return 1;
  }
  const opt::Solution sol = core::read_solution(in, circuit);

  // Independent recomputation of the claimed numbers.
  const double leak = sim::circuit_leakage_na(circuit, sol.config, sol.sleep_vector);
  sta::TimingState timing(circuit);
  const double delay = timing.analyze(sol.config);
  const bool leak_ok = std::abs(leak - sol.leakage_na) <= 0.01 * sol.leakage_na + 1.0;
  const bool delay_ok = std::abs(delay - sol.delay_ps) <= 0.01 * sol.delay_ps + 1.0;

  std::printf("claimed:   %.3f uA, %.0f ps\n", sol.leakage_na / 1e3, sol.delay_ps);
  std::printf("recomputed: %.3f uA, %.0f ps\n", leak / 1e3, delay);
  std::printf("verdict: leakage %s, delay %s\n", leak_ok ? "OK" : "MISMATCH",
              delay_ok ? "OK" : "MISMATCH");
  return leak_ok && delay_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "characterize") return cmd_characterize(args);
    if (args.command == "optimize") return cmd_optimize(args);
    if (args.command == "hier") return cmd_hier(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "suite") return cmd_suite(args);
    if (args.command == "batch") return cmd_batch(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "cmd") return cmd_raw(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "timing") return cmd_timing(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
