#include "netlist/bench_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox::netlist {

namespace {

/// Incremental mapper: turns bench primitives into library-cell gates,
/// inventing intermediate signals as needed.
class Mapper {
 public:
  Mapper(Netlist& netlist, const liberty::Library& library)
      : netlist_(netlist), library_(library) {}

  int signal(const std::string& name) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    const int id = netlist_.add_signal(name);
    by_name_.emplace(name, id);
    return id;
  }

  int fresh_signal(const std::string& hint) {
    const int id = netlist_.add_signal(hint + "_m" + std::to_string(counter_++));
    return id;
  }

  void gate(const std::string& cell, std::vector<int> fanins, int output) {
    netlist_.add_gate(numbered("g", counter_++), cell, std::move(fanins), output);
  }

  /// NOT.
  void map_not(int in, int out) { gate("INV", {in}, out); }

  /// BUFF: two inverters.
  void map_buff(int in, int out) {
    const int mid = fresh_signal("buf");
    map_not(in, mid);
    map_not(mid, out);
  }

  /// NAND of any arity (trees of NAND<=4 + AND subtrees for wide inputs).
  void map_nand(std::vector<int> ins, int out) {
    if (ins.size() == 1) {
      map_not(ins[0], out);
      return;
    }
    while (ins.size() > 4) ins = reduce_with_and(std::move(ins));
    const std::string cell = numbered("NAND", static_cast<long long>(ins.size()));
    gate(cell, std::move(ins), out);
  }

  /// NOR of any arity.
  void map_nor(std::vector<int> ins, int out) {
    if (ins.size() == 1) {
      map_not(ins[0], out);
      return;
    }
    while (ins.size() > 4) ins = reduce_with_or(std::move(ins));
    const std::string cell = numbered("NOR", static_cast<long long>(ins.size()));
    gate(cell, std::move(ins), out);
  }

  /// AND = NAND + INV.
  void map_and(std::vector<int> ins, int out) {
    const int mid = fresh_signal("and");
    map_nand(std::move(ins), mid);
    map_not(mid, out);
  }

  /// OR = NOR + INV.
  void map_or(std::vector<int> ins, int out) {
    const int mid = fresh_signal("or");
    map_nor(std::move(ins), mid);
    map_not(mid, out);
  }

  /// XOR2 as the classic 4-NAND tree; wider XOR as a balanced chain.
  void map_xor(std::vector<int> ins, int out) {
    while (ins.size() > 2) {
      std::vector<int> next;
      for (std::size_t i = 0; i + 1 < ins.size(); i += 2) {
        const int mid = fresh_signal("xor");
        map_xor2(ins[i], ins[i + 1], mid);
        next.push_back(mid);
      }
      if (ins.size() % 2 == 1) next.push_back(ins.back());
      ins = std::move(next);
    }
    if (ins.size() == 1) {
      map_buff(ins[0], out);
      return;
    }
    map_xor2(ins[0], ins[1], out);
  }

  void map_xor2(int a, int b, int out) {
    const int nab = fresh_signal("x");
    const int na = fresh_signal("x");
    const int nb = fresh_signal("x");
    gate("NAND2", {a, b}, nab);
    gate("NAND2", {a, nab}, na);
    gate("NAND2", {b, nab}, nb);
    gate("NAND2", {na, nb}, out);
  }

  void map_xnor(std::vector<int> ins, int out) {
    const int mid = fresh_signal("xn");
    map_xor(std::move(ins), mid);
    map_not(mid, out);
  }

 private:
  /// Collapses the first four inputs into one AND result.
  std::vector<int> reduce_with_and(std::vector<int> ins) {
    const int mid = fresh_signal("w");
    map_and({ins[0], ins[1], ins[2], ins[3]}, mid);
    std::vector<int> next = {mid};
    next.insert(next.end(), ins.begin() + 4, ins.end());
    return next;
  }

  std::vector<int> reduce_with_or(std::vector<int> ins) {
    const int mid = fresh_signal("w");
    map_or({ins[0], ins[1], ins[2], ins[3]}, mid);
    std::vector<int> next = {mid};
    next.insert(next.end(), ins.begin() + 4, ins.end());
    return next;
  }

  Netlist& netlist_;
  [[maybe_unused]] const liberty::Library& library_;
  std::unordered_map<std::string, int> by_name_;
  int counter_ = 0;
};

}  // namespace

Netlist read_bench(std::istream& in, const std::string& name,
                   const liberty::Library& library,
                   const std::string& source) {
  const std::string where = source.empty() ? name + ".bench" : source;
  Netlist netlist(name, &library);
  Mapper mapper(netlist, library);

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;

    auto fail = [&](const std::string& what) -> void {
      throw ParseError(where, line_no, what);
    };

    const std::string upper = to_upper(sv);
    if (starts_with(upper, "INPUT(") || starts_with(upper, "OUTPUT(")) {
      const std::size_t open = sv.find('(');
      const std::size_t close = sv.rfind(')');
      if (close == std::string_view::npos || close <= open + 1) fail("malformed port");
      const std::string port(trim(sv.substr(open + 1, close - open - 1)));
      const int sig = mapper.signal(port);
      if (upper[0] == 'I') {
        netlist.mark_input(sig);
      } else {
        netlist.mark_output(sig);
      }
      continue;
    }

    const std::size_t eq = sv.find('=');
    if (eq == std::string_view::npos) fail("expected assignment");
    const std::string lhs(trim(sv.substr(0, eq)));
    std::string_view rhs = trim(sv.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
      fail("expected FUNC(args)");
    }
    const std::string func = to_upper(trim(rhs.substr(0, open)));
    std::vector<int> fanins;
    for (std::string_view arg : split(rhs.substr(open + 1, close - open - 1), ',')) {
      arg = trim(arg);
      if (arg.empty()) fail("empty operand");
      fanins.push_back(mapper.signal(std::string(arg)));
    }
    if (fanins.empty()) fail("gate with no inputs");
    const int out = mapper.signal(lhs);

    if (func == "DFF") {
      // ISCAS-89 state element: Q = DFF(D).
      if (fanins.size() != 1) fail("DFF takes one input");
      netlist.add_flip_flop("ff_" + lhs, fanins[0], out);
    } else if (func == "NOT" || func == "INV") {
      if (fanins.size() != 1) fail("NOT takes one input");
      mapper.map_not(fanins[0], out);
    } else if (func == "BUFF" || func == "BUF") {
      if (fanins.size() != 1) fail("BUFF takes one input");
      mapper.map_buff(fanins[0], out);
    } else if (func == "NAND") {
      mapper.map_nand(std::move(fanins), out);
    } else if (func == "NOR") {
      mapper.map_nor(std::move(fanins), out);
    } else if (func == "AND") {
      mapper.map_and(std::move(fanins), out);
    } else if (func == "OR") {
      mapper.map_or(std::move(fanins), out);
    } else if (func == "XOR") {
      mapper.map_xor(std::move(fanins), out);
    } else if (func == "XNOR") {
      mapper.map_xnor(std::move(fanins), out);
    } else if (func == "AOI21" || func == "OAI21" || func == "AOI22" ||
               func == "OAI22") {
      // Extension primitives (emitted by write_bench for already-mapped
      // netlists): map 1:1 onto the library cell of the same name, so a
      // write/read round trip reproduces the gate list exactly.
      const std::size_t arity =
          static_cast<std::size_t>((func[3] - '0') + (func[4] - '0'));
      if (fanins.size() != arity) fail(func + " takes " + std::to_string(arity) + " inputs");
      mapper.gate(func, std::move(fanins), out);
    } else {
      fail("unknown primitive '" + func + "'");
    }
  }

  netlist.finalize();
  return netlist;
}

Netlist read_bench(const std::string& text, const std::string& name,
                   const liberty::Library& library,
                   const std::string& source) {
  std::istringstream in(text);
  return read_bench(in, name, library, source);
}

Netlist read_bench_file(const std::string& path, const liberty::Library& library) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(ErrorCode::kIo, "cannot open bench file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  if (!content.empty() && content.back() != '\n') {
    // A .bench file always ends in a newline; a missing one means the file
    // was cut off mid-write (partial copy, full disk, killed generator).
    const int lines =
        1 + static_cast<int>(std::count(content.begin(), content.end(), '\n'));
    throw ParseError(path, lines,
                     "truncated final line (file does not end in a newline)");
  }
  // Derive the circuit name from the basename without extension.
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return read_bench(content, name, library, path);
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  out << "# " << netlist.name() << " -- written by svtox\n";
  for (int s : netlist.primary_inputs()) {
    out << "INPUT(" << netlist.signal_name(s) << ")\n";
  }
  for (int s : netlist.primary_outputs()) {
    out << "OUTPUT(" << netlist.signal_name(s) << ")\n";
  }
  for (const FlipFlop& ff : netlist.flip_flops()) {
    out << netlist.signal_name(ff.q) << " = DFF(" << netlist.signal_name(ff.d) << ")\n";
  }
  for (int g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    const std::string& cell = netlist.cell_of(g).name();
    std::string func;
    if (cell == "INV") {
      func = "NOT";
    } else if (starts_with(cell, "NAND")) {
      func = "NAND";
    } else if (starts_with(cell, "NOR")) {
      func = "NOR";
    } else if (starts_with(cell, "AOI") || starts_with(cell, "OAI")) {
      // Extension primitives; read_bench maps them back 1:1, keeping the
      // pin order, so write/read round trips are gate-exact.
      func = cell;
    } else {
      throw ContractError("write_bench: cell '" + cell +
                          "' has no bench primitive equivalent");
    }
    out << netlist.signal_name(gate.output) << " = " << func << '(';
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i) out << ", ";
      out << netlist.signal_name(gate.fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench(const Netlist& netlist) {
  std::ostringstream out;
  write_bench(netlist, out);
  return out.str();
}

}  // namespace svtox::netlist
