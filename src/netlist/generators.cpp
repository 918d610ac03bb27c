#include "netlist/generators.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace svtox::netlist {

GateMix default_gate_mix() {
  return {
      {"INV", 0.16},  {"NAND2", 0.30}, {"NAND3", 0.09}, {"NAND4", 0.04},
      {"NOR2", 0.20}, {"NOR3", 0.08},  {"NOR4", 0.03},  {"AOI21", 0.05},
      {"OAI21", 0.05},
  };
}

namespace {

/// Weighted choice over the mix entries present in the library. The
/// cumulative-weight vector and per-entry library cell indices are
/// precomputed once, so per-gate sampling is a binary search plus integer
/// reads -- no map walks or cell-name lookups at generation time.
class CellPicker {
 public:
  CellPicker(const liberty::Library& library, const GateMix& mix) {
    for (const auto& [name, weight] : mix) {
      if (weight <= 0.0 || !library.has_cell(name)) continue;
      names_.push_back(name);
      cell_index_.push_back(library.cell_index(name));
      arity_.push_back(library.cell(name).num_inputs());
      cumulative_.push_back((cumulative_.empty() ? 0.0 : cumulative_.back()) + weight);
    }
    if (names_.empty()) throw ContractError("CellPicker: empty gate mix");
  }

  /// Picks a cell whose arity does not exceed `max_arity`.
  std::size_t pick(Rng& rng, int max_arity) const {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double x = rng.next_double() * cumulative_.back();
      const std::size_t idx =
          std::lower_bound(cumulative_.begin(), cumulative_.end(), x) -
          cumulative_.begin();
      if (arity_[idx] <= max_arity) return idx;
    }
    // Degenerate fallback: the smallest-arity cell.
    return std::min_element(arity_.begin(), arity_.end()) - arity_.begin();
  }

  const std::string& name(std::size_t idx) const { return names_[idx]; }
  int cell_index(std::size_t idx) const { return cell_index_[idx]; }
  int arity(std::size_t idx) const { return arity_[idx]; }

 private:
  std::vector<std::string> names_;
  std::vector<int> cell_index_;
  std::vector<int> arity_;
  std::vector<double> cumulative_;
};

}  // namespace

Netlist random_circuit(const liberty::Library& library, const std::string& name,
                       int num_inputs, int num_gates, std::uint64_t seed,
                       const GateMix& mix) {
  if (num_inputs < 2) throw ContractError("random_circuit: need at least 2 inputs");
  if (num_gates < 1) throw ContractError("random_circuit: need at least 1 gate");

  Netlist netlist(name, &library);
  Rng rng(seed);
  const CellPicker picker(library, mix);

  std::vector<int> signals;  // all drivable sources, in creation order
  std::vector<int> unused_inputs;
  for (int i = 0; i < num_inputs; ++i) {
    const int sig = netlist.add_signal(numbered("pi", i));
    netlist.mark_input(sig);
    signals.push_back(sig);
    unused_inputs.push_back(sig);
  }

  for (int g = 0; g < num_gates; ++g) {
    const std::size_t cell = picker.pick(rng, static_cast<int>(signals.size()));
    const int arity = picker.arity(cell);

    // Fanin selection: consume unused primary inputs first so every input
    // is observable, then draw with temporal locality (recent signals are
    // more likely) to build up logic depth.
    std::vector<int> fanins;
    while (static_cast<int>(fanins.size()) < arity) {
      int candidate;
      if (!unused_inputs.empty()) {
        const std::size_t pick = rng.next_below(unused_inputs.size());
        candidate = unused_inputs[pick];
        unused_inputs.erase(unused_inputs.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (rng.next_double() < 0.65) {
        const std::size_t window =
            std::max<std::size_t>(8, signals.size() / 8);
        const std::size_t lo = signals.size() > window ? signals.size() - window : 0;
        candidate = signals[lo + rng.next_below(signals.size() - lo)];
      } else {
        candidate = signals[rng.next_below(signals.size())];
      }
      if (std::find(fanins.begin(), fanins.end(), candidate) == fanins.end()) {
        fanins.push_back(candidate);
      }
    }

    const int out = netlist.add_signal(numbered("n", g));
    netlist.add_gate(numbered("g", g), picker.cell_index(cell), std::move(fanins),
                     out);
    signals.push_back(out);
  }

  // Signals nobody reads become primary outputs.
  std::vector<int> fanout_count(static_cast<std::size_t>(netlist.num_signals()), 0);
  for (const Gate& gate : netlist.gates()) {
    for (int f : gate.fanins) ++fanout_count[static_cast<std::size_t>(f)];
  }
  for (const Gate& gate : netlist.gates()) {
    if (fanout_count[static_cast<std::size_t>(gate.output)] == 0) {
      netlist.mark_output(gate.output);
    }
  }

  netlist.finalize();
  return netlist;
}

namespace {

/// Helper shared by the structural generators: NAND-level primitives over
/// an under-construction netlist.
class Builder {
 public:
  Builder(Netlist& netlist) : netlist_(netlist) {}

  int input(const std::string& name) {
    const int sig = netlist_.add_signal(name);
    netlist_.mark_input(sig);
    return sig;
  }

  int fresh(const std::string& hint) {
    return netlist_.add_signal(hint + std::to_string(counter_++));
  }

  int emit(const std::string& cell, std::vector<int> ins, const std::string& hint) {
    const int out = fresh(hint);
    netlist_.add_gate(hint + "_g" + std::to_string(counter_++), cell, std::move(ins), out);
    return out;
  }

  int nand2(int a, int b) { return emit("NAND2", {a, b}, "nd"); }
  int nand3(int a, int b, int c) { return emit("NAND3", {a, b, c}, "nd3"); }
  int nand4(int a, int b, int c, int d) { return emit("NAND4", {a, b, c, d}, "nd4"); }
  int inv(int a) { return emit("INV", {a}, "inv"); }
  int and2(int a, int b) { return inv(nand2(a, b)); }

  /// XOR2 as a 4-NAND tree.
  int xor2(int a, int b) {
    const int nab = nand2(a, b);
    return nand2(nand2(a, nab), nand2(b, nab));
  }

  /// Full adder from 9 NAND2 (carry chain via shared nodes).
  struct FullAdd {
    int sum;
    int carry;
  };
  FullAdd full_add(int a, int b, int cin) {
    const int n1 = nand2(a, b);
    const int hs = nand2(nand2(a, n1), nand2(b, n1));  // a ^ b
    const int n4 = nand2(hs, cin);
    const int sum = nand2(nand2(hs, n4), nand2(cin, n4));
    const int carry = nand2(n1, n4);
    return {sum, carry};
  }

  /// Half adder: sum = a ^ b, carry = a & b.
  FullAdd half_add(int a, int b) { return {xor2(a, b), and2(a, b)}; }

  void output(int signal) { netlist_.mark_output(signal); }

 private:
  Netlist& netlist_;
  int counter_ = 0;
};

}  // namespace

Netlist ripple_carry_adder(const liberty::Library& library, int bits) {
  if (bits < 1) throw ContractError("ripple_carry_adder: need at least 1 bit");
  Netlist netlist(numbered("rca", bits), &library);
  Builder b(netlist);

  std::vector<int> a(bits), bb(bits);
  for (int i = 0; i < bits; ++i) a[i] = b.input(numbered("a", i));
  for (int i = 0; i < bits; ++i) bb[i] = b.input(numbered("b", i));
  int carry = b.input("cin");

  for (int i = 0; i < bits; ++i) {
    const Builder::FullAdd fa = b.full_add(a[i], bb[i], carry);
    b.output(fa.sum);
    carry = fa.carry;
  }
  b.output(carry);

  netlist.finalize();
  return netlist;
}

Netlist array_multiplier(const liberty::Library& library, int n) {
  if (n < 2) throw ContractError("array_multiplier: need at least 2 bits");
  Netlist netlist(numbered("mul", n) + numbered("x", n), &library);
  Builder b(netlist);

  std::vector<int> a(n), x(n);
  for (int i = 0; i < n; ++i) a[i] = b.input(numbered("a", i));
  for (int i = 0; i < n; ++i) x[i] = b.input(numbered("b", i));

  // Partial products pp[i][j] = a[i] & x[j].
  std::vector<std::vector<int>> pp(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) pp[i][j] = b.and2(a[i], x[j]);
  }

  // Ripple-carry row reduction (the classic c6288-style array): row i adds
  // its partial products to the shifted running sum. `sum[j]` holds the bit
  // for column i+j; `top_carry` is the previous row's carry-out.
  std::vector<int> sum = pp[0];
  b.output(sum[0]);  // product bit 0
  int top_carry = -1;
  for (int i = 1; i < n; ++i) {
    std::vector<int> next(static_cast<std::size_t>(n));
    int carry = -1;
    for (int j = 0; j < n; ++j) {
      std::vector<int> terms = {pp[i][j]};
      if (j + 1 < n) {
        terms.push_back(sum[static_cast<std::size_t>(j + 1)]);
      } else if (top_carry >= 0) {
        terms.push_back(top_carry);
      }
      if (carry >= 0) terms.push_back(carry);

      if (terms.size() == 1) {
        next[static_cast<std::size_t>(j)] = terms[0];
        carry = -1;
      } else if (terms.size() == 2) {
        const Builder::FullAdd ha = b.half_add(terms[0], terms[1]);
        next[static_cast<std::size_t>(j)] = ha.sum;
        carry = ha.carry;
      } else {
        const Builder::FullAdd fa = b.full_add(terms[0], terms[1], terms[2]);
        next[static_cast<std::size_t>(j)] = fa.sum;
        carry = fa.carry;
      }
    }
    top_carry = carry;
    sum = std::move(next);
    b.output(sum[0]);  // product bit i
  }
  // High half: columns n .. 2n-2 plus the final carry (bit 2n-1).
  for (int j = 1; j < n; ++j) b.output(sum[static_cast<std::size_t>(j)]);
  if (top_carry >= 0) b.output(top_carry);

  netlist.finalize();
  return netlist;
}

Netlist alu64(const liberty::Library& library) {
  Netlist netlist("alu64", &library);
  Builder b(netlist);

  constexpr int kBits = 64;
  std::vector<int> a(kBits), x(kBits);
  for (int i = 0; i < kBits; ++i) a[i] = b.input(numbered("a", i));
  for (int i = 0; i < kBits; ++i) x[i] = b.input(numbered("b", i));
  const int s0 = b.input("sel0");
  const int s1 = b.input("sel1");
  const int cin = b.input("cin");

  // One-hot select decode (shared across all bits).
  const int ns0 = b.inv(s0);
  const int ns1 = b.inv(s1);
  const int sel_and = b.and2(ns1, ns0);   // 00 -> AND
  const int sel_or = b.and2(ns1, s0);     // 01 -> OR
  const int sel_xor = b.and2(s1, ns0);    // 10 -> XOR
  const int sel_add = b.and2(s1, s0);     // 11 -> ADD

  int carry = cin;
  for (int i = 0; i < kBits; ++i) {
    const int nand_ab = b.nand2(a[i], x[i]);
    const int and_ab = b.inv(nand_ab);
    const int or_ab = b.inv(b.emit("NOR2", {a[i], x[i]}, "nr"));
    const int xor_ab = b.xor2(a[i], x[i]);
    const Builder::FullAdd fa = b.full_add(a[i], x[i], carry);
    carry = fa.carry;

    // 4:1 mux as NAND4 of NAND2s (OR of ANDs).
    const int m0 = b.nand2(and_ab, sel_and);
    const int m1 = b.nand2(or_ab, sel_or);
    const int m2 = b.nand2(xor_ab, sel_xor);
    const int m3 = b.nand2(fa.sum, sel_add);
    const int out = b.nand4(m0, m1, m2, m3);
    b.output(out);
  }
  b.output(carry);

  // Zero-detect tree over the result mux outputs is part of real ALUs and
  // brings the gate count in line with the paper's alu64 row.
  std::vector<int> zero_stage;
  for (int i = 0; i < kBits; i += 4) {
    // NOR4 of four result bits is 1 when all are 0... our outputs are
    // already consumed as POs; detect over the XOR lane instead (it is a
    // function of the inputs, like a real zero flag on the bus).
    const int x0 = b.xor2(a[i], x[i]);
    const int x1 = b.xor2(a[i + 1], x[i + 1]);
    const int x2 = b.xor2(a[i + 2], x[i + 2]);
    const int x3 = b.xor2(a[i + 3], x[i + 3]);
    zero_stage.push_back(b.emit("NOR4", {x0, x1, x2, x3}, "z"));
  }
  while (zero_stage.size() > 1) {
    std::vector<int> next;
    std::size_t i = 0;
    for (; i + 3 < zero_stage.size(); i += 4) {
      next.push_back(b.inv(b.nand4(zero_stage[i], zero_stage[i + 1], zero_stage[i + 2],
                                   zero_stage[i + 3])));
    }
    for (; i < zero_stage.size(); ++i) next.push_back(zero_stage[i]);
    if (next.size() == zero_stage.size()) break;  // safety against 1-3 leftovers
    zero_stage = std::move(next);
  }
  b.output(zero_stage.front());

  netlist.finalize();
  return netlist;
}

Netlist sequential_pipeline(const liberty::Library& library, const std::string& name,
                            int width, int stages, int gates_per_stage,
                            std::uint64_t seed) {
  if (width < 2 || stages < 1 || gates_per_stage < width) {
    throw ContractError("sequential_pipeline: bad configuration");
  }
  Netlist netlist(name, &library);
  Rng rng(seed);
  const CellPicker picker(library, default_gate_mix());

  // Stage 0 sources: primary inputs. Later stages read register outputs.
  std::vector<int> sources;
  for (int i = 0; i < width; ++i) {
    const int sig = netlist.add_signal(numbered("pi", i));
    netlist.mark_input(sig);
    sources.push_back(sig);
  }

  int counter = 0;
  for (int stage = 0; stage < stages; ++stage) {
    // Random logic cloud over this stage's sources.
    std::vector<int> signals = sources;
    std::vector<int> unused = sources;
    for (int g = 0; g < gates_per_stage; ++g) {
      const std::size_t cell = picker.pick(rng, static_cast<int>(signals.size()));
      const int arity = picker.arity(cell);
      std::vector<int> fanins;
      while (static_cast<int>(fanins.size()) < arity) {
        int candidate;
        if (!unused.empty()) {
          const std::size_t pick = rng.next_below(unused.size());
          candidate = unused[pick];
          unused.erase(unused.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          candidate = signals[rng.next_below(signals.size())];
        }
        if (std::find(fanins.begin(), fanins.end(), candidate) == fanins.end()) {
          fanins.push_back(candidate);
        }
      }
      const int out = netlist.add_signal(numbered("s", stage) + "_n" +
                                         std::to_string(g));
      netlist.add_gate(numbered("g", counter++), picker.cell_index(cell),
                       std::move(fanins), out);
      signals.push_back(out);
    }

    // Register bank: latch the last `width` stage outputs.
    std::vector<int> next_sources;
    for (int b = 0; b < width; ++b) {
      const int d = signals[signals.size() - static_cast<std::size_t>(width) +
                            static_cast<std::size_t>(b)];
      if (stage + 1 == stages) {
        netlist.mark_output(d);  // final stage feeds the outputs directly
        continue;
      }
      const int q = netlist.add_signal(numbered("r", stage) + "_q" +
                                       std::to_string(b));
      netlist.add_flip_flop(numbered("ff", stage) + numbered("_", b), d, q);
      next_sources.push_back(q);
    }
    if (stage + 1 < stages) sources = std::move(next_sources);
  }

  netlist.finalize();
  return netlist;
}

Netlist parity_checker(const liberty::Library& library, int data_bits, int check_bits) {
  if (data_bits < 2 || check_bits < 1) {
    throw ContractError("parity_checker: bad configuration");
  }
  Netlist netlist(numbered("sec", data_bits), &library);
  Builder b(netlist);

  std::vector<int> data(data_bits), check(check_bits);
  for (int i = 0; i < data_bits; ++i) data[i] = b.input(numbered("d", i));
  for (int i = 0; i < check_bits; ++i) check[i] = b.input(numbered("c", i));
  const int enable = b.input("en");

  // Syndrome j = XOR of a (Hamming-style) half of the data bits + check j.
  for (int j = 0; j < check_bits; ++j) {
    std::vector<int> terms;
    for (int i = 0; i < data_bits; ++i) {
      // Data bit i participates in syndrome j when bit j of (i+1) is set --
      // the classic Hamming membership rule.
      if (((i + 1) >> (j % 8)) & 1) terms.push_back(data[i]);
    }
    if (terms.empty()) terms.push_back(data[j % data_bits]);
    terms.push_back(check[j]);
    int acc = terms[0];
    for (std::size_t t = 1; t < terms.size(); ++t) acc = b.xor2(acc, terms[t]);
    b.output(b.and2(acc, enable));
  }

  netlist.finalize();
  return netlist;
}

Netlist random_dag(const liberty::Library& library, const std::string& name,
                   const DagOptions& options) {
  if (options.num_inputs < 2) throw ContractError("random_dag: need at least 2 inputs");
  if (options.num_gates < 1) throw ContractError("random_dag: need at least 1 gate");
  if (options.target_depth < 1 || options.target_depth > options.num_gates) {
    throw ContractError("random_dag: target_depth must be in [1, num_gates]");
  }
  if (options.max_fanout < 1) throw ContractError("random_dag: max_fanout must be >= 1");

  Netlist netlist(name, &library);
  Rng rng(options.seed);
  const CellPicker picker(library, options.mix);

  // Every non-first fanin draw goes through `pool`, a vector of signals
  // with remaining fanout budget; saturated entries are swap-removed, so
  // the whole generation is O(num_gates * arity) with no quadratic
  // erase/scan. Signals enter the pool only once their rank is complete,
  // which keeps every fanin strictly below the gate's own rank.
  std::vector<int> budget;       // per signal: remaining fanout allowance
  std::vector<int> pool;         // signals with budget > 0
  std::vector<int> pool_slot;    // per signal: index in pool, -1 if absent
  auto add_source = [&](int signal) {
    if (static_cast<std::size_t>(signal) >= budget.size()) {
      budget.resize(static_cast<std::size_t>(signal) + 1, 0);
      pool_slot.resize(static_cast<std::size_t>(signal) + 1, -1);
    }
    budget[static_cast<std::size_t>(signal)] = options.max_fanout;
    pool_slot[static_cast<std::size_t>(signal)] = static_cast<int>(pool.size());
    pool.push_back(signal);
  };
  auto consume = [&](int signal) {
    if (--budget[static_cast<std::size_t>(signal)] > 0) return;
    const int slot = pool_slot[static_cast<std::size_t>(signal)];
    if (slot < 0) return;
    const int last = pool.back();
    pool[static_cast<std::size_t>(slot)] = last;
    pool_slot[static_cast<std::size_t>(last)] = slot;
    pool.pop_back();
    pool_slot[static_cast<std::size_t>(signal)] = -1;
  };

  std::vector<int> unused_inputs;
  std::vector<int> prev_rank;  // previous rank's signals (rank 0: the PIs)
  for (int i = 0; i < options.num_inputs; ++i) {
    const int sig = netlist.add_signal(numbered("pi", i));
    netlist.mark_input(sig);
    add_source(sig);
    unused_inputs.push_back(sig);
    prev_rank.push_back(sig);
  }

  // Lay gates out in `target_depth` ranks. A gate's first fanin comes from
  // the previous rank (primary inputs for rank 0), which pins its level to
  // rank + 1 exactly; remaining fanins come from the budget pool (strictly
  // lower ranks), consuming unseen primary inputs first so every input is
  // observable.
  const int depth = options.target_depth;
  int emitted = 0;
  std::vector<int> fanins;
  for (int rank = 0; rank < depth; ++rank) {
    const int rank_gates = (options.num_gates - emitted) / (depth - rank);
    const std::size_t rank_base = static_cast<std::size_t>(netlist.num_signals());
    std::vector<int> this_rank;
    this_rank.reserve(static_cast<std::size_t>(rank_gates));
    for (int g = 0; g < rank_gates; ++g) {
      const std::size_t cell = picker.pick(rng, static_cast<int>(rank_base));
      const int arity = picker.arity(cell);
      fanins.clear();

      // First fanin: a previous-rank signal, preferring one with budget
      // left (one retry; the cap is soft, so a saturated signal is still
      // usable -- exact depth beats the fanout preference).
      int first = prev_rank[rng.next_below(prev_rank.size())];
      if (budget[static_cast<std::size_t>(first)] <= 0 && prev_rank.size() > 1) {
        first = prev_rank[rng.next_below(prev_rank.size())];
      }
      consume(first);
      fanins.push_back(first);

      while (static_cast<int>(fanins.size()) < arity) {
        int candidate;
        if (!unused_inputs.empty()) {
          candidate = unused_inputs.back();
          unused_inputs.pop_back();
        } else if (!pool.empty()) {
          candidate = pool[rng.next_below(pool.size())];
        } else {
          candidate = static_cast<int>(rng.next_below(rank_base));
        }
        if (std::find(fanins.begin(), fanins.end(), candidate) != fanins.end()) {
          // Duplicate draw: fall back to a uniform lower-rank signal to
          // guarantee progress (arity <= rank_base by construction).
          candidate = static_cast<int>(rng.next_below(rank_base));
          if (std::find(fanins.begin(), fanins.end(), candidate) != fanins.end()) {
            continue;
          }
        }
        consume(candidate);
        fanins.push_back(candidate);
      }

      const int out = netlist.add_signal(numbered("n", emitted + g));
      netlist.add_gate(numbered("g", emitted + g), picker.cell_index(cell),
                       fanins, out);
      this_rank.push_back(out);
    }
    for (int out : this_rank) add_source(out);
    emitted += rank_gates;
    prev_rank = std::move(this_rank);
  }

  // Signals nobody reads become primary outputs.
  std::vector<int> fanout_count(static_cast<std::size_t>(netlist.num_signals()), 0);
  for (const Gate& gate : netlist.gates()) {
    for (int f : gate.fanins) ++fanout_count[static_cast<std::size_t>(f)];
  }
  for (const Gate& gate : netlist.gates()) {
    if (fanout_count[static_cast<std::size_t>(gate.output)] == 0) {
      netlist.mark_output(gate.output);
    }
  }

  netlist.finalize();
  return netlist;
}

Netlist adder_tree(const liberty::Library& library, int width, int operands) {
  if (width < 1) throw ContractError("adder_tree: need at least 1 bit");
  if (operands < 2) throw ContractError("adder_tree: need at least 2 operands");
  Netlist netlist(numbered("addtree", width) + numbered("x", operands),
                  &library);
  Builder b(netlist);

  // Operand inputs, then a balanced pairwise reduction: each round adds
  // adjacent pairs with ripple-carry adders whose width grows by one bit
  // per round (the carry-out becomes the new MSB), so no precision is lost.
  std::vector<std::vector<int>> terms(static_cast<std::size_t>(operands));
  for (int o = 0; o < operands; ++o) {
    terms[static_cast<std::size_t>(o)].resize(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      terms[static_cast<std::size_t>(o)][static_cast<std::size_t>(i)] =
          b.input(numbered("op", o) + numbered("_", i));
    }
  }

  while (terms.size() > 1) {
    std::vector<std::vector<int>> next;
    std::size_t i = 0;
    for (; i + 1 < terms.size(); i += 2) {
      const std::vector<int>& x = terms[i];
      const std::vector<int>& y = terms[i + 1];
      const std::size_t bits = std::max(x.size(), y.size());
      std::vector<int> sum;
      sum.reserve(bits + 1);
      int carry = -1;
      for (std::size_t j = 0; j < bits; ++j) {
        const bool has_x = j < x.size();
        const bool has_y = j < y.size();
        if (has_x && has_y) {
          const Builder::FullAdd fa = carry >= 0 ? b.full_add(x[j], y[j], carry)
                                                 : b.half_add(x[j], y[j]);
          sum.push_back(fa.sum);
          carry = fa.carry;
        } else {
          const int lone = has_x ? x[j] : y[j];
          if (carry >= 0) {
            const Builder::FullAdd ha = b.half_add(lone, carry);
            sum.push_back(ha.sum);
            carry = ha.carry;
          } else {
            sum.push_back(lone);
          }
        }
      }
      if (carry >= 0) sum.push_back(carry);
      next.push_back(std::move(sum));
    }
    for (; i < terms.size(); ++i) next.push_back(std::move(terms[i]));
    terms = std::move(next);
  }

  for (int sig : terms.front()) b.output(sig);
  netlist.finalize();
  return netlist;
}

Netlist make_scale_circuit(const liberty::Library& library, const std::string& name) {
  auto dag = [&](int gates, int depth) {
    DagOptions opt;
    opt.num_inputs = 256;
    opt.num_gates = gates;
    opt.target_depth = depth;
    opt.max_fanout = 8;
    opt.seed = 20240;
    return random_dag(library, name, opt);
  };
  if (name == "dag10k") return dag(10000, 40);
  if (name == "dag100k") return dag(100000, 64);
  if (name == "dag500k") return dag(500000, 96);
  if (name == "dag1m") return dag(1000000, 128);
  if (name == "mul64") return array_multiplier(library, 64);
  if (name == "mul128") return array_multiplier(library, 128);
  if (name == "mul256") return array_multiplier(library, 256);
  if (name == "addtree64x128") return adder_tree(library, 64, 128);
  throw ContractError("make_scale_circuit: unknown preset '" + name + "'");
}

std::vector<std::string> scale_circuit_names() {
  return {"dag10k",  "mul64",  "dag100k", "addtree64x128",
          "dag500k", "mul128", "mul256",  "dag1m"};
}

}  // namespace svtox::netlist
