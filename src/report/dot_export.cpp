#include "report/dot_export.hpp"

#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox::report {

void write_dot(const netlist::Netlist& netlist, std::ostream& out,
               const sim::CircuitConfig* config,
               const std::vector<bool>* sleep_vector) {
  if (config != nullptr &&
      config->size() != static_cast<std::size_t>(netlist.num_gates())) {
    throw ContractError("write_dot: config size mismatch");
  }
  if (sleep_vector != nullptr &&
      sleep_vector->size() != static_cast<std::size_t>(netlist.num_control_points())) {
    throw ContractError("write_dot: sleep vector size mismatch");
  }

  out << "digraph \"" << netlist.name() << "\" {\n";
  out << "  rankdir=LR;\n  node [fontsize=9];\n";

  // Sources: primary inputs as triangles, FF outputs as boxes.
  for (int i = 0; i < netlist.num_control_points(); ++i) {
    const int s = netlist.control_points()[i];
    const bool is_pi = i < netlist.num_inputs();
    out << "  \"s" << s << "\" [shape=" << (is_pi ? "invtriangle" : "box")
        << ", label=\"" << netlist.signal_name(s);
    if (sleep_vector != nullptr) out << "=" << ((*sleep_vector)[i] ? '1' : '0');
    out << "\"];\n";
  }

  for (int g = 0; g < netlist.num_gates(); ++g) {
    const liberty::LibCell& cell = netlist.cell_of(g);
    std::string label = netlist.gate(g).name + "\\n" + cell.name();
    bool swapped = false;
    if (config != nullptr) {
      const int v = (*config)[static_cast<std::size_t>(g)].variant;
      if (v != cell.fastest_variant()) {
        swapped = true;
        label = netlist.gate(g).name + "\\n" + cell.variant(v).name;
      }
    }
    out << "  \"g" << g << "\" [shape=ellipse, label=\"" << label << '"';
    if (swapped) out << ", style=filled, fillcolor=lightblue";
    out << "];\n";
  }

  auto source_node = [&](int signal) {
    const int driver = netlist.driver(signal);
    if (driver >= 0) return numbered("g", driver);
    return numbered("s", signal);
  };

  for (int g = 0; g < netlist.num_gates(); ++g) {
    for (int f : netlist.gate(g).fanins) {
      out << "  \"" << source_node(f) << "\" -> \"g" << g << "\";\n";
    }
  }
  // Endpoints: POs and FF D pins.
  for (int s : netlist.primary_outputs()) {
    out << "  \"o" << s << "\" [shape=triangle, label=\"" << netlist.signal_name(s)
        << "\"];\n";
    out << "  \"" << source_node(s) << "\" -> \"o" << s << "\";\n";
  }
  for (const netlist::FlipFlop& ff : netlist.flip_flops()) {
    out << "  \"" << source_node(ff.d) << "\" -> \"s" << ff.q
        << "\" [style=dashed, label=\"" << ff.name << "\"];\n";
  }
  out << "}\n";
}

std::string write_dot(const netlist::Netlist& netlist, const sim::CircuitConfig* config,
                      const std::vector<bool>* sleep_vector) {
  std::ostringstream out;
  write_dot(netlist, out, config, sleep_vector);
  return out.str();
}

}  // namespace svtox::report
