// Measurement scaffolding of the benchmark program: spans, per-repetition
// samples, process resources, result checks and the JSON report.
//
// A workload runs in repetitions. Each repetition builds its inputs (the
// set-up), runs the timed part, then checks every result. Spans wrap each
// call into a library layer; with tracing off they cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/leakage_eval.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (user + system, all threads) [s].
double process_cpu_s();

/// Peak resident set size of the process image [MiB].
double peak_rss_mib();

/// Median of `values` (which it sorts); 0 for an empty vector.
double median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of `values` (sorts them).
double quantile(std::vector<double> values, double q);

/// In-memory span recorder: per repetition, the summed duration of the
/// spans sharing a name, which is what the per-layer metrics read.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Switches recording on or off; only between repetitions.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_rep(int rep) { rep_ = rep; }

  /// Adds one closed span of `seconds` named `name` to the current
  /// repetition (no-op when tracing is off).
  void add(const char* name, double seconds);

  /// Summed seconds of the spans named `name` in repetition `rep`.
  double total_s(const char* name, int rep) const;

  /// Number of spans recorded.
  std::size_t spans() const { return spans_; }

 private:
  bool enabled_;
  int rep_ = 0;
  std::size_t spans_ = 0;
  std::map<std::pair<std::string, int>, double> totals_;
};

/// RAII span around one call into the library. Single-threaded: spans are
/// opened and closed on the main thread.
class Scoped {
 public:
  Scoped(Trace& trace, const char* name)
      : trace_(trace), name_(name), start_(trace.enabled() ? Clock::now() : Clock::time_point()) {}
  ~Scoped() {
    if (trace_.enabled()) trace_.add(name_, seconds_between(start_, Clock::now()));
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace& trace_;
  const char* name_;
  Clock::time_point start_;
};

/// Counts checked operations and reports the failed ones on stderr.
class Checker {
 public:
  /// Records one checked operation; false marks it failed.
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Independent check of one returned solution: a from-scratch simulation
/// and leakage sum must equal `reported_leakage_na`, and a from-scratch
/// STA must meet `constraint_ps`. Spans `sim.simulate_s` and
/// `sta.analyze_s` when tracing.
void verify_solution(const svtox::netlist::Netlist& netlist,
                     const std::vector<bool>& sleep_vector,
                     const svtox::sim::CircuitConfig& config, double constraint_ps,
                     double reported_leakage_na, const std::string& label,
                     Trace& trace, Checker& checker);

/// What one repetition measured.
struct RepSample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> job_latency_s;  ///< One entry per completed job.
  double leakage_ua = 0.0;            ///< Summed over every returned solution.
  /// Exact counters that must repeat across repetitions and runs.
  std::map<std::string, double> counts;
  /// Per-layer values of this repetition (traced runs only).
  std::map<std::string, double> layers;
};

/// Workload sizes: the benchmark's own, or a seconds-long smoke size.
enum class Size { kFull, kSmoke };

/// One named workload: set-up plus timed part plus checks, once per call.
struct Workload {
  const char* name;
  /// Runs one repetition. `rep` numbers repetitions from 0 in the run; a
  /// negative `rep` runs the set-up alone (an extra set-up sample).
  RepSample (*run)(std::uint64_t seed, Size size, int rep, Trace& trace,
                   Checker& checker);
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// The per-layer metric names with their units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
