// perfbench: the svtox benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--commit ID] [--source HASH] [--record-dir DIR]
//
// Runs repetitions of one workload for about S seconds (at least three;
// traced runs alternate traced and untraced ones), checks every result, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Every time is scaled to a reference host speed by a fixed-work calibration
// run between repetitions. A line before the result carries the run's
// context: provenance, the calibration's median time, the unscaled wall
// time and sample counts.
//
// --record-dir keeps each run's deterministic results (leakage and exact
// counts) per workload, seed, size and source hash; a later run of the same
// key, traced or not, must reproduce them.
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string source = "unknown";
  std::string record_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit ID] [--source HASH] [--record-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source") {
      args.source = value;
    } else if (flag == "--record-dir") {
      args.record_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// Host-speed calibration: fixed work independent of the library under
/// test, whose time moves with the host's speed much as the workloads'
/// times do. On a VM the slow phases come from other tenants sharing the
/// core and its caches; the single-thread flows work on an L2-sized set, so
/// the calibration does too: a dependent walk of 1M loads over a 1 MiB
/// table plus a sort of 500k seeded integers (branch-heavy, 2 MB).
/// Seconds. The buffers live for the whole run, so they add a constant to
/// the peak resident set rather than a share that depends on timing.
double calibration_s() {
  static std::vector<std::uint64_t> table(1 << 17);  // 1 MiB
  static std::vector<std::uint32_t> values(500'000);
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t& entry : table) entry = next();
  for (std::uint32_t& value : values) value = static_cast<std::uint32_t>(next());
  const auto start = Clock::now();
  std::uint64_t walk = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) walk = table[(walk ^ i) & (table.size() - 1)];
  values[0] ^= static_cast<std::uint32_t>(walk);  // keeps the walk
  std::sort(values.begin(), values.end());
  return seconds_between(start, Clock::now());
}

/// The calibration's time at the reference host speed in which every reported
/// time is expressed [s].
constexpr double kReferenceCalibrationS = 0.06;

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The deterministic part of a repetition, as comparable text.
std::string signature(const RepSample& sample) {
  std::string out = "leakage_ua " + json_number(sample.leakage_ua) + "\n";
  for (const auto& [name, value] : sample.counts) out += name + " " + json_number(value) + "\n";
  return out;
}

/// Compares `sig` with the record of an earlier run of the same key, or
/// writes the record when there is none.
void check_record(const Args& args, const std::string& sig, Checker& checker) {
  if (args.record_dir.empty()) return;
  ::mkdir(args.record_dir.c_str(), 0777);
  const std::string path = args.record_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + (args.smoke ? "-smoke-" : "-") +
                           args.source + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream earlier;
    earlier << in.rdbuf();
    checker.expect(earlier.str() == sig,
                   "results differ from an earlier run of this seed (" + path + ")");
    return;
  }
  std::ofstream(path) << sig;
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "release") {
    std::fprintf(stderr, "perfbench: built as '%s', not 'release'; refusing to measure\n",
                 build_type.c_str());
    return 3;
  }
  const Size size = args.smoke ? Size::kSmoke : Size::kFull;

  // The set-up passes, and then every repetition, run between two
  // calibrations. Their times are scaled by the reference calibration time
  // over the geometric mean of those two, which takes out part of the
  // host's drift (the calibration slows down with the host as the
  // workloads do); each time metric is then the median of the scaled
  // values.
  std::vector<double> calibrations = {calibration_s()};
  auto speed = [&calibrations](std::size_t interval) {
    return kReferenceCalibrationS / std::sqrt(calibrations[interval] * calibrations[interval + 1]);
  };

  Trace trace(args.trace);
  Checker checker;
  // Set-up alone, for set-up samples beyond the repetitions' own: at least
  // ten passes and one second of them, since the first pass in a process
  // is the slowest and the service mix's set-up takes well under 1 ms.
  const std::size_t min_passes = args.smoke ? 1 : 10;
  const double min_setup_s = args.smoke ? 0.0 : 1.0;
  std::vector<double> setup_s;
  trace.set_rep(-1);
  const auto setup_start = Clock::now();
  while (setup_s.size() < min_passes ||
         seconds_between(setup_start, Clock::now()) < min_setup_s) {
    setup_s.push_back(workload->run(args.seed, size, -1, trace, checker).setup_s);
  }
  calibrations.push_back(calibration_s());
  for (double& value : setup_s) value *= speed(0);

  // A traced run alternates traced and untraced repetitions, so the
  // tracing overhead is measured in one process and one time window.
  std::vector<RepSample> reps;
  const int min_reps = args.smoke ? (args.trace ? 2 : 1) : (args.trace ? 4 : 3);
  const auto start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const int rep = static_cast<int>(reps.size());
    trace.set_rep(rep);
    if (args.trace) trace.set_enabled(rep % 2 == 0);
    reps.push_back(workload->run(args.seed, size, rep, trace, checker));
    // Hand freed memory back to the kernel so each repetition starts from
    // the same resident set: the peak is then one repetition's, not a
    // function of how many repetitions fit in the run.
    malloc_trim(0);
    calibrations.push_back(calibration_s());
  }

  // Determinism: every repetition, and every earlier run of this seed,
  // must return the same leakage and counts.
  const std::string sig = signature(reps.front());
  for (std::size_t r = 1; r < reps.size(); ++r) {
    checker.expect(signature(reps[r]) == sig,
                   "repetition " + std::to_string(r) + " differs from repetition 0");
  }
  check_record(args, sig, checker);

  std::vector<double> wall, raw_wall, cpu, p50, p95, rate, traced_wall;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const RepSample& sample = reps[r];
    const double k = speed(r + 1);
    setup_s.push_back(sample.setup_s * k);
    if (args.trace && r % 2 == 0) {
      traced_wall.push_back(sample.wall_s * k);
      continue;
    }
    wall.push_back(sample.wall_s * k);
    raw_wall.push_back(sample.wall_s);
    cpu.push_back(sample.cpu_s * k);
    p50.push_back(quantile(sample.job_latency_s, 0.50) * 1e3 * k);
    p95.push_back(quantile(sample.job_latency_s, 0.95) * 1e3 * k);
    rate.push_back(static_cast<double>(sample.job_latency_s.size()) / (sample.wall_s * k));
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", {median(setup_s), "s"}},
        {"wall_s", {median(wall), "s"}},
        {"cpu_s", {median(cpu), "s"}},
        {"peak_rss_mib", {peak_rss_mib(), "MiB"}},
        {"leakage_ua", {reps.front().leakage_ua, "uA"}},
        {"jobs_per_s", {median(rate), "1/s"}},
        {"job_latency_p50_ms", {median(p50), "ms"}},
        {"job_latency_p95_ms", {median(p95), "ms"}},
    };
  } else {
    for (const auto& [name, unit] : per_layer_metrics()) {
      const bool is_time = unit == "s" || unit == "ms" || unit == "us";
      std::vector<double> values;
      for (std::size_t r = 0; r < reps.size(); r += 2) {
        const RepSample& sample = reps[r];
        double value = 0.0;
        if (auto it = sample.layers.find(name); it != sample.layers.end()) {
          value = it->second;
        } else if (auto c = sample.counts.find(name); c != sample.counts.end()) {
          value = c->second;
        } else {
          // Span-derived: the layer's summed span time in this repetition
          // (0 when the workload never calls into it).
          value = trace.total_s(name.c_str(), static_cast<int>(r));
        }
        values.push_back(is_time ? value * speed(r + 1) : value);
      }
      metrics.push_back({name, {median(values), unit}});
    }
  }

  std::string context = "{\"context\":{";
  context += "\"workload\":" + json_string(args.workload);
  context += ",\"seed\":" + std::to_string(args.seed);
  context += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  context += ",\"size\":" + json_string(args.smoke ? "smoke" : "full");
  context += ",\"build_type\":" + json_string(build_type);
  context += ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency());
  context += ",\"commit\":" + json_string(args.commit);
  context += ",\"source\":" + json_string(args.source);
  context += ",\"calibration_s\":" + json_number(median(calibrations));
  context += ",\"reps\":" + std::to_string(reps.size());
  context += ",\"setup_samples\":" + std::to_string(setup_s.size());
  context += ",\"jobs_per_rep\":" + std::to_string(reps.front().job_latency_s.size());
  context += ",\"raw_wall_s\":" + json_number(median(raw_wall));
  context += ",\"wall_s\":" + json_number(median(wall));
  if (args.trace) context += ",\"traced_wall_s\":" + json_number(median(traced_wall));
  context += ",\"spans\":" + std::to_string(trace.spans());
  context += "}}";
  std::printf("%s\n", context.c_str());

  const bool correct = checker.failed() == 0;
  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false");
  result += ",\"attempted\":" + std::to_string(checker.attempted());
  result += ",\"failed\":" + std::to_string(checker.failed());
  result += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    if (i > 0) result += ",";
    result += json_string(name) + ":{\"value\":" + json_number(value.first) +
              ",\"unit\":" + json_string(value.second) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
