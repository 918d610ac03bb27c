#include "sim/packed.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace svtox::sim {

namespace {

void check_run(const netlist::Netlist& netlist, std::size_t provided) {
  if (provided != static_cast<std::size_t>(netlist.num_control_points())) {
    throw ContractError("packed sim: control-point word count mismatch");
  }
  if (!netlist.finalized()) throw ContractError("packed sim: netlist not finalized");
}

/// Compiles (once per library cell actually instantiated) and returns the
/// per-cell plane programs, indexed by cell_index.
std::vector<cellkit::PlaneProgram> compile_programs(const netlist::Netlist& netlist) {
  const netlist::FlatNetlist& flat = netlist.flat();
  std::vector<cellkit::PlaneProgram> programs(netlist.library().cells().size());
  std::vector<bool> done(programs.size(), false);
  for (std::uint32_t g = 0; g < flat.num_gates(); ++g) {
    const std::size_t cell = flat.cell_index(g);
    if (done[cell]) continue;
    programs[cell] = cellkit::compile_plane_program(flat.topology(g));
    done[cell] = true;
  }
  return programs;
}

}  // namespace

SimBackend default_backend() {
  static const SimBackend backend = [] {
    const char* env = std::getenv("SVTOX_SIM_BACKEND");
    if (env == nullptr || *env == '\0') return SimBackend::kPacked;
    const std::string_view value(env);
    if (value == "packed") return SimBackend::kPacked;
    if (value == "scalar") return SimBackend::kScalar;
    throw ContractError("SVTOX_SIM_BACKEND must be 'packed' or 'scalar'");
  }();
  return backend;
}

PackedBoolSim::PackedBoolSim(const netlist::Netlist& netlist) : netlist_(&netlist) {
  if (!netlist.finalized()) throw ContractError("PackedBoolSim: netlist not finalized");
  const netlist::FlatNetlist& flat = netlist.flat();
  const std::vector<cellkit::PlaneProgram> programs = compile_programs(netlist);
  gates_.reserve(static_cast<std::size_t>(flat.num_gates()));
  for (std::uint32_t g : flat.topo_order()) {
    const std::uint32_t* fanins = flat.fanins(g);
    const cellkit::PlaneProgram& program = programs[flat.cell_index(g)];
    GateRange range;
    range.begin = static_cast<std::int32_t>(ops_.size());
    for (const cellkit::PlaneOp& op : program.ops) {
      cellkit::PlaneOp resolved = op;
      if (op.kind == cellkit::PlaneOp::Kind::kLoad) {
        // Resolve the cell-local pin to the gate's fanin signal id.
        resolved.pin = static_cast<int>(fanins[op.pin]);
      }
      ops_.push_back(resolved);
    }
    range.end = static_cast<std::int32_t>(ops_.size());
    range.output = static_cast<std::int32_t>(flat.output(g));
    gates_.push_back(range);
    if (program.max_stack > max_stack_) max_stack_ = program.max_stack;
  }
  words_.resize(static_cast<std::size_t>(flat.num_signals()), 0);
}

const std::vector<std::uint64_t>& PackedBoolSim::run(
    const std::vector<std::uint64_t>& input_words) {
  check_run(*netlist_, input_words.size());
  std::uint64_t* const words = words_.data();
  for (int i = 0; i < netlist_->num_control_points(); ++i) {
    words[netlist_->control_points()[static_cast<std::size_t>(i)]] =
        input_words[static_cast<std::size_t>(i)];
  }
  std::uint64_t stack_storage[16];
  std::vector<std::uint64_t> stack_heap;
  std::uint64_t* stack = stack_storage;
  if (max_stack_ > 16) {
    stack_heap.resize(static_cast<std::size_t>(max_stack_));
    stack = stack_heap.data();
  }
  const cellkit::PlaneOp* const ops = ops_.data();
  for (const GateRange& gate : gates_) {
    int top = -1;
    for (std::int32_t i = gate.begin; i < gate.end; ++i) {
      const cellkit::PlaneOp op = ops[i];
      switch (op.kind) {
        case cellkit::PlaneOp::Kind::kLoad:
          stack[++top] = words[op.pin];
          break;
        case cellkit::PlaneOp::Kind::kAnd:
          stack[top - 1] &= stack[top];
          --top;
          break;
        case cellkit::PlaneOp::Kind::kOr:
          stack[top - 1] |= stack[top];
          --top;
          break;
      }
    }
    words[gate.output] = ~stack[0];
  }
  return words_;
}

PackedTernarySim::PackedTernarySim(const netlist::Netlist& netlist)
    : netlist_(&netlist) {
  if (!netlist.finalized()) throw ContractError("PackedTernarySim: netlist not finalized");
  const netlist::FlatNetlist& flat = netlist.flat();
  const std::vector<cellkit::PlaneProgram> programs = compile_programs(netlist);
  cell_states_.resize(programs.size());
  std::vector<bool> states_done(programs.size(), false);
  gates_.reserve(static_cast<std::size_t>(flat.num_gates()));
  for (std::uint32_t g : flat.topo_order()) {
    const std::uint32_t* fanins = flat.fanins(g);
    const std::size_t cell = flat.cell_index(g);
    const cellkit::PlaneProgram& program = programs[cell];
    GateRange range;
    range.begin = range.end = static_cast<std::int32_t>(ops_.size());
    if (program.exact_ternary) {
      for (const cellkit::PlaneOp& op : program.ops) {
        cellkit::PlaneOp resolved = op;
        if (op.kind == cellkit::PlaneOp::Kind::kLoad) {
          resolved.pin = static_cast<int>(fanins[op.pin]);
        }
        ops_.push_back(resolved);
      }
      range.end = static_cast<std::int32_t>(ops_.size());
      if (program.max_stack > max_stack_) max_stack_ = program.max_stack;
    } else if (!states_done[cell]) {
      // Kleene evaluation would be pessimistic for this cell: precompute
      // the ON/OFF-set state lists its exact minterm fallback scans.
      const cellkit::CellTopology& topo = flat.topology(g);
      for (std::uint32_t s = 0; s < topo.num_states(); ++s) {
        (topo.output(s) ? cell_states_[cell].on : cell_states_[cell].off).push_back(s);
      }
      states_done[cell] = true;
    }
    range.output = static_cast<std::int32_t>(flat.output(g));
    range.gate = static_cast<std::int32_t>(g);
    range.cell = static_cast<std::int32_t>(cell);
    gates_.push_back(range);
  }
  planes_.resize(static_cast<std::size_t>(flat.num_signals()));
}

void PackedTernarySim::run_generic(int gate, int cell) {
  // Exact three-valued evaluation by completion sets: a lane's output can
  // be 1 iff some ON-set state is compatible with its pin planes, can be 0
  // iff some OFF-set state is. Known iff exactly one of the two holds.
  const netlist::FlatNetlist& flat = netlist_->flat();
  const std::uint32_t* fanins = flat.fanins(static_cast<std::uint32_t>(gate));
  const int k = static_cast<int>(flat.fanin_count(static_cast<std::uint32_t>(gate)));
  std::uint64_t can_hi[8];  // Pin can carry 1 (value 1 or X).
  std::uint64_t can_lo[8];  // Pin can carry 0 (value 0 or X).
  for (int p = 0; p < k; ++p) {
    const cellkit::TriWord pin = planes_[fanins[p]];
    can_hi[p] = pin.ones | pin.xs;
    can_lo[p] = ~pin.ones;
  }
  const CellStates& states = cell_states_[static_cast<std::size_t>(cell)];
  std::uint64_t can_one = 0;
  for (std::uint32_t s : states.on) {
    std::uint64_t term = ~0ULL;
    for (int p = 0; p < k; ++p) term &= ((s >> p) & 1u) ? can_hi[p] : can_lo[p];
    can_one |= term;
  }
  std::uint64_t can_zero = 0;
  for (std::uint32_t s : states.off) {
    std::uint64_t term = ~0ULL;
    for (int p = 0; p < k; ++p) term &= ((s >> p) & 1u) ? can_hi[p] : can_lo[p];
    can_zero |= term;
  }
  planes_[flat.output(static_cast<std::uint32_t>(gate))] = {can_one & ~can_zero,
                                                            can_one & can_zero};
}

const std::vector<cellkit::TriWord>& PackedTernarySim::run(
    const std::vector<cellkit::TriWord>& input_planes) {
  check_run(*netlist_, input_planes.size());
  cellkit::TriWord* const planes = planes_.data();
  for (int i = 0; i < netlist_->num_control_points(); ++i) {
    planes[netlist_->control_points()[static_cast<std::size_t>(i)]] =
        input_planes[static_cast<std::size_t>(i)];
  }
  cellkit::TriWord stack_storage[16];
  std::vector<cellkit::TriWord> stack_heap;
  cellkit::TriWord* stack = stack_storage;
  if (max_stack_ > 16) {
    stack_heap.resize(static_cast<std::size_t>(max_stack_));
    stack = stack_heap.data();
  }
  const cellkit::PlaneOp* const ops = ops_.data();
  for (const GateRange& gate : gates_) {
    if (gate.begin == gate.end) {
      run_generic(gate.gate, gate.cell);
      continue;
    }
    int top = -1;
    for (std::int32_t i = gate.begin; i < gate.end; ++i) {
      const cellkit::PlaneOp op = ops[i];
      switch (op.kind) {
        case cellkit::PlaneOp::Kind::kLoad:
          stack[++top] = planes[op.pin];
          break;
        case cellkit::PlaneOp::Kind::kAnd:
          stack[top - 1] = cellkit::tri_and(stack[top - 1], stack[top]);
          --top;
          break;
        case cellkit::PlaneOp::Kind::kOr:
          stack[top - 1] = cellkit::tri_or(stack[top - 1], stack[top]);
          --top;
          break;
      }
    }
    planes[gate.output] = cellkit::tri_not(stack[0]);
  }
  return planes_;
}

std::vector<simd::SelectGate> select_plan(
    const netlist::FlatNetlist& flat,
    const std::function<const double*(std::uint32_t)>& leak_row) {
  std::vector<simd::SelectGate> plan(flat.num_gates());
  for (std::uint32_t g = 0; g < flat.num_gates(); ++g) {
    simd::SelectGate& gate = plan[g];
    gate.num_pins = flat.fanin_count(g);
    if (gate.num_pins > simd::kMaxSelectPins) {
      std::string what = "select_plan: gate ";
      what += std::to_string(g);
      what += " has more than 4 pins";
      throw ContractError(what);
    }
    std::copy_n(flat.fanins(g), gate.num_pins, gate.pins);
    gate.leak = leak_row(g);
  }
  return plan;
}

std::vector<std::vector<std::uint64_t>> state_histogram(const netlist::Netlist& netlist,
                                                        int num_vectors,
                                                        std::uint64_t seed,
                                                        SimBackend backend) {
  if (!netlist.finalized()) throw ContractError("state_histogram: netlist not finalized");
  if (num_vectors < 0) throw ContractError("state_histogram: negative vector count");
  const int num_gates = netlist.num_gates();
  std::vector<std::vector<std::uint64_t>> counts(static_cast<std::size_t>(num_gates));
  for (int g = 0; g < num_gates; ++g) {
    counts[static_cast<std::size_t>(g)].assign(
        netlist.cell_of(g).topology().num_states(), 0);
  }

  Rng rng(seed);
  std::vector<std::uint64_t> pi_words(
      static_cast<std::size_t>(netlist.num_control_points()));
  PackedBoolSim packed(netlist);
  std::vector<bool> scalar_inputs;
  for (int done = 0; done < num_vectors; done += 64) {
    const int lanes = std::min(64, num_vectors - done);
    for (std::uint64_t& word : pi_words) word = rng.next_u64();
    if (backend == SimBackend::kPacked) {
      const std::vector<std::uint64_t>& words = packed.run(pi_words);
      const std::uint64_t mask = tail_mask(lanes);
      const netlist::FlatNetlist& flat = netlist.flat();
      for (int g = 0; g < num_gates; ++g) {
        std::uint64_t* gate_counts = counts[static_cast<std::size_t>(g)].data();
        for_each_state_match(flat, static_cast<std::uint32_t>(g), words, mask,
                             [gate_counts](std::uint32_t state, std::uint64_t match) {
                               gate_counts[state] +=
                                   static_cast<std::uint64_t>(std::popcount(match));
                             });
      }
    } else {
      // Scalar reference: same Rng word stream, one lane at a time.
      scalar_inputs.resize(pi_words.size());
      for (int lane = 0; lane < lanes; ++lane) {
        for (std::size_t i = 0; i < pi_words.size(); ++i) {
          scalar_inputs[i] = ((pi_words[i] >> lane) & 1u) != 0;
        }
        const std::vector<bool> values = simulate(netlist, scalar_inputs);
        for (int g = 0; g < num_gates; ++g) {
          ++counts[static_cast<std::size_t>(g)][local_state(netlist, values, g)];
        }
      }
    }
  }
  return counts;
}

}  // namespace svtox::sim
