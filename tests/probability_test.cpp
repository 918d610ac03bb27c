// Vectorless probability propagation and DOT export tests.
#include <gtest/gtest.h>

#include "netlist/generators.hpp"
#include "opt/state_search.hpp"
#include "report/dot_export.hpp"
#include "sim/leakage_eval.hpp"
#include "sim/probability.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox::sim {
namespace {

const liberty::Library& lib() {
  static const liberty::Library library =
      liberty::Library::build(model::TechParams::nominal(), {});
  return library;
}

netlist::Netlist one_gate(const char* cell, int arity) {
  netlist::Netlist n("pg", &lib());
  std::vector<int> ins;
  for (int i = 0; i < arity; ++i) {
    const int s = n.add_signal(numbered("i", i));
    n.mark_input(s);
    ins.push_back(s);
  }
  const int y = n.add_signal("y");
  n.mark_output(y);
  n.add_gate("g", cell, ins, y);
  n.finalize();
  return n;
}

TEST(Probability, ExactForSingleGates) {
  // NAND2 with p(a)=p(b)=0.5: P(out=1) = 1 - 0.25 = 0.75.
  const auto nand2 = one_gate("NAND2", 2);
  const auto p = propagate_probabilities(nand2, {0.5, 0.5});
  EXPECT_NEAR(p[static_cast<std::size_t>(nand2.find_signal("y"))], 0.75, 1e-12);

  const auto nor3 = one_gate("NOR3", 3);
  const auto q = propagate_probabilities(nor3, {0.5, 0.5, 0.5});
  EXPECT_NEAR(q[static_cast<std::size_t>(nor3.find_signal("y"))], 0.125, 1e-12);

  // Deterministic inputs give deterministic outputs.
  const auto inv = one_gate("INV", 1);
  EXPECT_NEAR(propagate_probabilities(inv, {1.0})
                  [static_cast<std::size_t>(inv.find_signal("y"))],
              0.0, 1e-12);
}

TEST(Probability, ExactOnFanoutFreeTrees) {
  // On a fanout-free circuit every signal feeds exactly one gate, pins are
  // genuinely independent, and the propagation is *exact*: compare against
  // brute-force enumeration on a 3-level balanced NAND tree (8 inputs).
  netlist::Netlist n("tree", &lib());
  std::vector<int> level;
  for (int i = 0; i < 8; ++i) {
    const int s = n.add_signal(numbered("i", i));
    n.mark_input(s);
    level.push_back(s);
  }
  int counter = 0;
  while (level.size() > 1) {
    std::vector<int> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const int out = n.add_signal(numbered("t", counter));
      n.add_gate(numbered("g", counter++), "NAND2", {level[i], level[i + 1]}, out);
      next.push_back(out);
    }
    level = std::move(next);
  }
  n.mark_output(level.front());
  n.finalize();

  // Mixed, non-uniform input probabilities.
  std::vector<double> pin = {0.5, 0.25, 0.9, 0.1, 0.6, 0.4, 1.0, 0.0};
  const auto p = propagate_probabilities(n, pin);

  std::vector<double> exact(static_cast<std::size_t>(n.num_signals()), 0.0);
  for (std::uint32_t v = 0; v < 256; ++v) {
    std::vector<bool> in(8);
    double weight = 1.0;
    for (int i = 0; i < 8; ++i) {
      in[static_cast<std::size_t>(i)] = (v >> i) & 1;
      weight *= in[static_cast<std::size_t>(i)] ? pin[static_cast<std::size_t>(i)]
                                                : 1.0 - pin[static_cast<std::size_t>(i)];
    }
    if (weight == 0.0) continue;
    const auto values = simulate(n, in);
    for (int s = 0; s < n.num_signals(); ++s) {
      if (values[static_cast<std::size_t>(s)]) exact[static_cast<std::size_t>(s)] += weight;
    }
  }
  for (int s = 0; s < n.num_signals(); ++s) {
    EXPECT_NEAR(p[static_cast<std::size_t>(s)], exact[static_cast<std::size_t>(s)], 1e-9)
        << n.signal_name(s);
  }
}

TEST(Probability, ExpectedLeakageTracksMonteCarlo) {
  const auto n = netlist::random_circuit(lib(), "pb1", 12, 100, 95);
  const auto config = fastest_config(n);
  const double expected = expected_leakage_uniform_na(n, config);
  const double mc = monte_carlo_leakage(n, config, 4000, 95).mean_na;
  // Independence bias stays within ~15% on these random circuits.
  EXPECT_NEAR(expected / mc, 1.0, 0.15);
}

TEST(Probability, InvalidInputsThrow) {
  const auto n = one_gate("INV", 1);
  EXPECT_THROW(propagate_probabilities(n, {}), ContractError);
  EXPECT_THROW(propagate_probabilities(n, {1.5}), ContractError);
  EXPECT_THROW(expected_leakage_na(n, CircuitConfig{}, {0.5}), ContractError);
}

TEST(Probability, BiasedInputsShiftExpectation) {
  // Driving inputs toward the low-leakage state reduces expected leakage.
  const auto n = netlist::random_circuit(lib(), "pb2", 10, 80, 96);
  const auto config = fastest_config(n);
  const double uniform = expected_leakage_uniform_na(n, config);

  // Find the better all-constant corner.
  const double all0 = expected_leakage_na(
      n, config, std::vector<double>(static_cast<std::size_t>(n.num_inputs()), 0.0));
  const double all1 = expected_leakage_na(
      n, config, std::vector<double>(static_cast<std::size_t>(n.num_inputs()), 1.0));
  EXPECT_LT(std::min(all0, all1), uniform);
}

TEST(DotExport, ContainsStructureAndAnnotations) {
  const auto n = netlist::random_circuit(lib(), "dot1", 6, 20, 97);
  const opt::AssignmentProblem problem(n, 0.25);
  const auto sol = opt::heuristic1(problem);

  const std::string plain = report::write_dot(n);
  EXPECT_NE(plain.find("digraph \"dot1\""), std::string::npos);
  EXPECT_NE(plain.find("rankdir=LR"), std::string::npos);
  EXPECT_NE(plain.find("->"), std::string::npos);
  EXPECT_EQ(plain.find("lightblue"), std::string::npos);

  const std::string annotated = report::write_dot(n, &sol.config, &sol.sleep_vector);
  EXPECT_NE(annotated.find("lightblue"), std::string::npos);  // swapped gates
  EXPECT_NE(annotated.find("=1"), std::string::npos);         // sleep values
}

TEST(DotExport, SequentialEdgesDashed) {
  const auto n = netlist::sequential_pipeline(lib(), "dot2", 4, 2, 12, 98);
  const std::string text = report::write_dot(n);
  EXPECT_NE(text.find("style=dashed"), std::string::npos);
}

TEST(DotExport, SizeMismatchThrows) {
  const auto n = netlist::random_circuit(lib(), "dot3", 4, 10, 99);
  CircuitConfig bad;
  EXPECT_THROW(report::write_dot(n, &bad), ContractError);
}

}  // namespace
}  // namespace svtox::sim
