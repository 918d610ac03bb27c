#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "sim/sim.hpp"
#include "sta/sta.hpp"

namespace perfbench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it
  // would report the launcher's peak when that was higher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Trace::add(const char* name, double seconds) {
  if (!enabled_) return;
  totals_[{name, rep_}] += seconds;
  ++spans_;
}

double Trace::total_s(const char* name, int rep) const {
  const auto it = totals_.find({name, rep});
  return it == totals_.end() ? 0.0 : it->second;
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void verify_solution(const svtox::netlist::Netlist& netlist,
                     const std::vector<bool>& sleep_vector,
                     const svtox::sim::CircuitConfig& config, double constraint_ps,
                     double reported_leakage_na, const std::string& label,
                     Trace& trace, Checker& checker) {
  if (sleep_vector.size() != static_cast<std::size_t>(netlist.num_control_points()) ||
      config.size() != static_cast<std::size_t>(netlist.num_gates())) {
    checker.expect(false, label + ": solution does not match the netlist");
    return;
  }
  std::vector<bool> values;
  {
    Scoped span(trace, "sim.simulate_s");
    values = svtox::sim::simulate(netlist, sleep_vector);
  }
  const double leakage_na =
      svtox::sim::circuit_leakage_from_values_na(netlist, config, values);
  double delay_ps = 0.0;
  {
    Scoped span(trace, "sta.analyze_s");
    svtox::sta::TimingState timing(netlist);
    delay_ps = timing.analyze(config);
  }
  // The optimizers sum the same per-gate table entries in another order,
  // so equality holds up to rounding.
  const bool leak_ok =
      std::abs(leakage_na - reported_leakage_na) <= 1e-9 * std::abs(reported_leakage_na) + 1e-6;
  checker.expect(leak_ok, label + ": recomputed leakage " + std::to_string(leakage_na) +
                              " nA != reported " + std::to_string(reported_leakage_na));
  checker.expect(delay_ps <= constraint_ps * (1.0 + 1e-12),
                 label + ": delay " + std::to_string(delay_ps) + " ps > constraint " +
                     std::to_string(constraint_ps));
}

}  // namespace perfbench
