#include "liberty/lib_format.hpp"

#include <ostream>
#include <sstream>

#include "cellkit/state.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox::liberty {

std::string liberty_pin_name(int pin) { return numbered("A", pin + 1); }

std::string liberty_function(const std::string& name) {
  auto join = [](int k, char op) {
    std::string out;
    for (int i = 0; i < k; ++i) {
      if (i) out += op;
      out += liberty_pin_name(i);
    }
    return out;
  };
  if (name == "INV") return "!A1";
  if (starts_with(name, "NAND")) return "!(" + join(name.back() - '0', '&') + ")";
  if (starts_with(name, "NOR")) return "!(" + join(name.back() - '0', '|') + ")";
  if (name == "AOI21") return "!((A1&A2)|A3)";
  if (name == "OAI21") return "!((A1|A2)&A3)";
  if (name == "AOI22") return "!((A1&A2)|(A3&A4))";
  if (name == "OAI22") return "!((A1|A2)&(A3|A4))";
  throw ContractError("liberty_function: unknown archetype '" + name + "'");
}

namespace {

/// When-condition of one input state, e.g. state 0b01 of a 2-input cell
/// becomes "A1&!A2".
std::string when_condition(std::uint32_t state, int num_inputs) {
  std::string out;
  for (int pin = 0; pin < num_inputs; ++pin) {
    if (pin) out += '&';
    if (!((state >> pin) & 1u)) out += '!';
    out += liberty_pin_name(pin);
  }
  return out;
}

void write_values(std::ostream& out, const NldmTable& table, const char* indent) {
  out << indent << "values ( \\\n";
  const std::size_t rows = table.slew_axis_ps().size();
  const std::size_t cols = table.load_axis_ff().size();
  for (std::size_t r = 0; r < rows; ++r) {
    out << indent << "  \"";
    for (std::size_t c = 0; c < cols; ++c) {
      if (c) out << ", ";
      out << format_double(table.at(r, c), 4);
    }
    out << '"' << (r + 1 < rows ? ", \\" : " \\") << '\n';
  }
  out << indent << ");\n";
}

void write_axis(std::ostream& out, const char* tag, const std::vector<double>& axis,
                const char* indent) {
  out << indent << tag << " (\"";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (i) out << ", ";
    out << format_double(axis[i], 3);
  }
  out << "\");\n";
}

}  // namespace

void write_liberty_format(const Library& lib, std::ostream& out,
                          const std::string& library_name) {
  out << "/* Generated by svtox -- dual-Vt/dual-Tox standby swap library. */\n";
  out << "library (" << library_name << ") {\n";
  out << "  delay_model : table_lookup;\n";
  out << "  time_unit : \"1ps\";\n";
  out << "  voltage_unit : \"1V\";\n";
  out << "  current_unit : \"1uA\";\n";
  out << "  leakage_power_unit : \"1nW\";\n";
  out << "  capacitive_load_unit (1, ff);\n";
  out << "  nom_voltage : " << format_double(lib.tech().vdd_volts, 2) << ";\n";
  out << "  nom_temperature : " << format_double(lib.tech().temp_kelvin - 273.0, 1)
      << ";\n\n";

  out << "  lu_table_template (svtox_tmpl) {\n";
  out << "    variable_1 : input_net_transition;\n";
  out << "    variable_2 : total_output_net_capacitance;\n";
  write_axis(out, "index_1", lib.options().slew_axis_ps, "    ");
  write_axis(out, "index_2", lib.options().load_axis_ff, "    ");
  out << "  }\n\n";

  for (const LibCell& cell : lib.cells()) {
    const std::string function = liberty_function(cell.name());
    for (const LibCellVariant& variant : cell.variants()) {
      out << "  cell (" << variant.name << ") {\n";
      out << "    area : " << format_double(variant.area, 3) << ";\n";

      // State-dependent leakage: Vdd * I gives power; we keep current*Vdd
      // in nW assuming 1V supply so values equal the nA currents.
      for (std::uint32_t state = 0; state < cell.topology().num_states(); ++state) {
        out << "    leakage_power () { when : \""
            << when_condition(state, cell.num_inputs()) << "\"; value : "
            << format_double(variant.leakage_na[state] * lib.tech().vdd_volts, 3)
            << "; }\n";
      }

      for (int pin = 0; pin < cell.num_inputs(); ++pin) {
        out << "    pin (" << liberty_pin_name(pin) << ") {\n";
        out << "      direction : input;\n";
        out << "      capacitance : "
            << format_double(cell.topology().pin_capacitance_ff(pin), 3) << ";\n";
        out << "    }\n";
      }

      out << "    pin (Y) {\n";
      out << "      direction : output;\n";
      out << "      function : \"" << function << "\";\n";
      for (int pin = 0; pin < cell.num_inputs(); ++pin) {
        const PinTiming& t = variant.pins[static_cast<std::size_t>(pin)];
        out << "      timing () {\n";
        out << "        related_pin : \"" << liberty_pin_name(pin) << "\";\n";
        out << "        timing_sense : negative_unate;\n";
        out << "        cell_rise (svtox_tmpl) {\n";
        write_values(out, t.delay_rise, "          ");
        out << "        }\n";
        out << "        rise_transition (svtox_tmpl) {\n";
        write_values(out, t.slew_rise, "          ");
        out << "        }\n";
        out << "        cell_fall (svtox_tmpl) {\n";
        write_values(out, t.delay_fall, "          ");
        out << "        }\n";
        out << "        fall_transition (svtox_tmpl) {\n";
        write_values(out, t.slew_fall, "          ");
        out << "        }\n";
        out << "      }\n";
      }
      out << "    }\n";
      out << "  }\n\n";
    }
  }
  out << "}\n";
}

std::string write_liberty_format(const Library& lib, const std::string& library_name) {
  std::ostringstream out;
  write_liberty_format(lib, out, library_name);
  return out.str();
}

}  // namespace svtox::liberty
