#include "opt/state_search.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "opt/checkpoint.hpp"
#include "opt/leaf_evaluator.hpp"
#include "opt/packed_bound.hpp"
#include "sim/packed.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

namespace svtox::opt {

namespace {

int ceil_log2(std::uint32_t value) {
  int bits = 0;
  while ((1u << bits) < value) ++bits;
  return bits;
}

/// Best-so-far solution shared by every search worker. The leakage is
/// mirrored in an atomic so prune checks never take the lock. Equal-leakage
/// leaves tie-break toward the lexicographically smallest sleep vector, so
/// an exhaustive search returns the same solution regardless of worker
/// count or arrival order.
class Incumbent {
 public:
  Incumbent() { best_.leakage_na = 1e300; }

  double leakage() const { return leakage_.load(std::memory_order_acquire); }

  void offer(Solution&& leaf) {
    std::lock_guard<std::mutex> lock(mu_);
    if (leaf.leakage_na < best_.leakage_na ||
        (leaf.leakage_na == best_.leakage_na &&
         leaf.sleep_vector < best_.sleep_vector)) {
      best_ = std::move(leaf);
      leakage_.store(best_.leakage_na, std::memory_order_release);
    }
  }

  Solution take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(best_);
  }

  /// Copy of the current best (for checkpoint snapshots).
  Solution snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return best_;
  }

 private:
  std::atomic<double> leakage_{1e300};
  mutable std::mutex mu_;
  Solution best_;
};

/// Bookkeeping for periodic SearchCheckpoint writes. Only present (via
/// SearchContext::sink) when SearchOptions::checkpoint_path is set, which
/// also forces a serial search -- so none of these fields need atomics.
struct CheckpointSink {
  std::string path;
  double every_s = 5.0;
  std::uint64_t every_leaves = 64;
  std::uint64_t fingerprint = 0;
  bool tree_done = false;
  std::uint64_t probes_done = 0;
  /// Path (by input_order position) to the most recently evaluated leaf.
  std::vector<bool> leaf_path;
  /// Counter values at the frontier (the last leaf/probe boundary). A
  /// cancelling search keeps counting interior nodes it enters and then
  /// abandons; those nodes are re-explored after a resume, so snapshotting
  /// the live counters would double-count them. The marks advance only at
  /// consistent points, and the checkpoint stores the marks.
  std::uint64_t nodes_mark = 0;
  std::uint64_t leaves_mark = 0;
  /// Wall-clock consumed by earlier (interrupted) runs of this search.
  double base_elapsed_s = 0.0;
  const Timer* run_timer = nullptr;
  Timer since_write;
  std::uint64_t leaves_at_write = 0;
};

/// Everything the DFS workers share: the problem, the budget, and the
/// incumbent. Counters are atomics so the budget checks stay lock-free.
struct SearchContext {
  const AssignmentProblem& problem;
  const SearchOptions& options;
  BoundKind bound_kind;
  bool state_only;
  Deadline deadline;
  Incumbent incumbent;
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> leaves{0};
  /// Latched true once any worker observes the external cancel flag.
  std::atomic<bool> interrupted{false};
  /// Non-null only when checkpointing (serial search).
  CheckpointSink* sink = nullptr;

  SearchContext(const AssignmentProblem& p, const SearchOptions& o, BoundKind kind,
                bool only_state, double consumed_s = 0.0)
      : problem(p),
        options(o),
        bound_kind(kind),
        state_only(only_state),
        deadline(consumed_s > 0.0 ? std::max(0.0, o.time_limit_s - consumed_s)
                                  : o.time_limit_s) {}

  /// External cancellation check; latches `interrupted` when observed so
  /// the result can be flagged.
  bool cancelled() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      interrupted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool out_of_budget() {
    const std::uint64_t done = leaves.load(std::memory_order_relaxed);
    if (options.max_leaves != 0 && done >= options.max_leaves) return true;
    // The very first leaf (Heu1's descent) always completes, so even a
    // cancelled search returns a valid incumbent.
    if (done == 0) return false;
    return deadline.expired() || cancelled();
  }
};

/// Serializes the current frontier + incumbent to the sink's file if the
/// cadence (leaf count or elapsed time since the last write) says so, or
/// unconditionally with `force`. A failed write is a warning, never a
/// search failure -- the search result does not depend on checkpoints.
void maybe_write_checkpoint(SearchContext& ctx, bool force) {
  CheckpointSink* sink = ctx.sink;
  if (sink == nullptr) return;
  const std::uint64_t done = ctx.leaves.load(std::memory_order_relaxed);
  if (!force) {
    const bool by_count = sink->every_leaves != 0 &&
                          done - sink->leaves_at_write >= sink->every_leaves;
    const bool by_time = sink->since_write.seconds() >= sink->every_s;
    if (!by_count && !by_time) return;
  }
  SearchCheckpoint checkpoint;
  checkpoint.fingerprint = sink->fingerprint;
  checkpoint.tree_done = sink->tree_done;
  if (!sink->tree_done) checkpoint.path = sink->leaf_path;
  checkpoint.probes_done = sink->probes_done;
  checkpoint.nodes = sink->nodes_mark;
  checkpoint.leaves = sink->leaves_mark;
  checkpoint.elapsed_s = sink->base_elapsed_s + sink->run_timer->seconds();
  const Solution best = ctx.incumbent.snapshot();
  checkpoint.sleep_vector = best.sleep_vector;
  checkpoint.config = best.config;
  checkpoint.leakage_na = best.leakage_na;
  checkpoint.delay_ps = best.delay_ps;
  try {
    write_checkpoint_file(checkpoint, sink->path);
  } catch (const std::exception& e) {
    log_warn(std::string("checkpoint write failed (continuing): ") + e.what());
  }
  sink->leaves_at_write = done;
  sink->since_write.reset();
}

/// One search worker: owns a private BoundEngine (and hence a private
/// incremental ternary simulator) for interior nodes plus a private
/// LeafEvaluator that amortizes leaf setup (simulation, canonicalization,
/// the all-fastest timing baseline) across every leaf the worker visits.
class DfsWorker {
 public:
  explicit DfsWorker(SearchContext& ctx)
      : ctx_(ctx),
        engine_(ctx.problem, ctx.bound_kind, ctx.options.bound_mode),
        evaluator_(ctx.problem) {}

  BoundEngine& engine() { return engine_; }

  /// Arms checkpoint replay: the next dfs(0) descends `path` (the recorded
  /// branch at every depth, by input_order position) without counting
  /// nodes, pruning, budget checks or re-evaluating the final leaf --
  /// those all happened before the checkpoint and live in the restored
  /// counters/incumbent -- then unwinds into the normal bounded DFS at
  /// each level, continuing exactly where the interrupted run stopped.
  /// The pointee must outlive the dfs call.
  void resume_from(const std::vector<bool>* path) {
    replay_path_ = path;
    replaying_ = true;
  }

  /// Bounded DFS assigning input_order positions [depth, n); positions
  /// before `depth` must already be set through the engine.
  void dfs(std::size_t depth) {
    if (!replaying_) ctx_.nodes.fetch_add(1, std::memory_order_relaxed);
    if (depth == num_control_points()) {
      if (replaying_) {
        // The replayed leaf was evaluated (and counted) pre-checkpoint.
        replaying_ = false;
        return;
      }
      evaluate_leaf();
      return;
    }
    if (!replaying_ && ctx_.out_of_budget()) return;

    const std::vector<bool>& prefix = ctx_.options.subtree_prefix;
    if (depth < prefix.size()) {
      // Pinned by the subtree restriction: take the prescribed branch only
      // -- no sibling, no bound probes, no pruning. A replayed checkpoint
      // of a restricted search recorded the same branch by construction,
      // so replay simply continues through here.
      const int pinned_pi = ctx_.problem.input_order()[depth];
      engine_.set_input(pinned_pi,
                        prefix[depth] ? sim::Tri::kOne : sim::Tri::kZero);
      dfs(depth + 1);
      engine_.undo();
      return;
    }
    if (!ctx_.options.pinned_inputs.empty()) {
      // Pinned to a constant (boundary-aware cone solve): descend the
      // prescribed value only -- no sibling, no bound probe, no pruning --
      // exactly like a subtree restriction, but addressed by control-point
      // index instead of tree depth. A replayed checkpoint of a pinned
      // search recorded this same branch by construction.
      const int pin_pi = ctx_.problem.input_order()[depth];
      const sim::Tri pin =
          ctx_.options.pinned_inputs[static_cast<std::size_t>(pin_pi)];
      if (pin != sim::Tri::kX) {
        engine_.set_input(pin_pi, pin);
        dfs(depth + 1);
        engine_.undo();
        return;
      }
    }

    const int pi = ctx_.problem.input_order()[depth];
    // Bound both branches to order (and, beyond the first leaf, prune).
    double bounds[2];
    for (int v = 0; v < 2; ++v) {
      bounds[v] = engine_.set_input(pi, v == 0 ? sim::Tri::kZero : sim::Tri::kOne);
      engine_.undo();
    }
    const int first = bounds[0] <= bounds[1] ? 0 : 1;
    int start_k = 0;
    if (replaying_) {
      // Descend the recorded branch unconditionally: the interrupted run
      // already decided to take it. A branch ordered before it was either
      // pruned or fully explored back then -- both already reflected in
      // the restored counters and incumbent -- so the continuation starts
      // at the next-ordered branch.
      const int v = (*replay_path_)[depth] ? 1 : 0;
      start_k = v == first ? 0 : 1;
      engine_.set_input(pi, v == 0 ? sim::Tri::kZero : sim::Tri::kOne);
      dfs(depth + 1);
      engine_.undo();
      if (ctx_.options.max_leaves != 0 &&
          ctx_.leaves.load(std::memory_order_relaxed) >= ctx_.options.max_leaves) {
        return;
      }
      ++start_k;
    }
    for (int k = start_k; k < 2; ++k) {
      const int v = k == 0 ? first : 1 - first;
      if (ctx_.leaves.load(std::memory_order_relaxed) > 0 &&
          bounds[v] >= ctx_.incumbent.leakage() - 1e-12) {
        continue;  // prune
      }
      if (k == 1 && ctx_.out_of_budget()) break;
      engine_.set_input(pi, v == 0 ? sim::Tri::kZero : sim::Tri::kOne);
      dfs(depth + 1);
      engine_.undo();
      if (ctx_.options.max_leaves != 0 &&
          ctx_.leaves.load(std::memory_order_relaxed) >= ctx_.options.max_leaves) {
        break;
      }
    }
  }

  /// Heu1's first descent: follow the better-bounded branch straight down
  /// -- never pruned, never budget-limited -- then evaluate one leaf and
  /// unwind. Used to seed the incumbent before the parallel split.
  void descend() {
    const std::size_t n = num_control_points();
    for (std::size_t depth = 0; depth < n; ++depth) {
      ctx_.nodes.fetch_add(1, std::memory_order_relaxed);
      const int pi = ctx_.problem.input_order()[depth];
      if (!ctx_.options.pinned_inputs.empty()) {
        const sim::Tri pin =
            ctx_.options.pinned_inputs[static_cast<std::size_t>(pi)];
        if (pin != sim::Tri::kX) {
          engine_.set_input(pi, pin);
          continue;
        }
      }
      double bounds[2];
      for (int v = 0; v < 2; ++v) {
        bounds[v] = engine_.set_input(pi, v == 0 ? sim::Tri::kZero : sim::Tri::kOne);
        engine_.undo();
      }
      const int best = bounds[0] <= bounds[1] ? 0 : 1;
      engine_.set_input(pi, best == 0 ? sim::Tri::kZero : sim::Tri::kOne);
    }
    ctx_.nodes.fetch_add(1, std::memory_order_relaxed);
    evaluate_leaf();
    for (std::size_t depth = 0; depth < n; ++depth) engine_.undo();
  }

 private:
  std::size_t num_control_points() const {
    return static_cast<std::size_t>(ctx_.problem.netlist().num_control_points());
  }

  void evaluate_leaf() {
    ctx_.leaves.fetch_add(1, std::memory_order_relaxed);
    const std::vector<sim::Tri>& inputs = engine_.input_values();
    std::vector<bool> vector(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      vector[i] = inputs[i] == sim::Tri::kOne;
    }
    Solution leaf;
    if (ctx_.state_only) {
      leaf = evaluator_.evaluate_state_only(vector);
    } else if (ctx_.options.exact_leaves) {
      leaf = evaluator_.evaluate_exact(vector, ctx_.options.max_gate_nodes);
    } else {
      leaf = evaluator_.evaluate_greedy(vector, ctx_.options.gate_order);
    }
    ctx_.incumbent.offer(std::move(leaf));
    if (ctx_.sink != nullptr) {
      // Record the path to this leaf (after the offer, so a snapshot's
      // incumbent is exact at the leaf boundary) and maybe write.
      const std::vector<int>& order = ctx_.problem.input_order();
      ctx_.sink->leaf_path.resize(order.size());
      for (std::size_t d = 0; d < order.size(); ++d) {
        ctx_.sink->leaf_path[d] = vector[static_cast<std::size_t>(order[d])];
      }
      ctx_.sink->nodes_mark = ctx_.nodes.load(std::memory_order_relaxed);
      ctx_.sink->leaves_mark = ctx_.leaves.load(std::memory_order_relaxed);
      maybe_write_checkpoint(ctx_, /*force=*/false);
    }
  }

  SearchContext& ctx_;
  BoundEngine engine_;
  LeafEvaluator evaluator_;
  const std::vector<bool>* replay_path_ = nullptr;
  bool replaying_ = false;
};

/// Parallel root split (SearchOptions::threads > 1): the top
/// ceil(log2(threads)) + 2 levels of the state tree are enumerated as
/// fixed-prefix subtrees that a thread pool drains through a shared
/// atomic work index -- the same partition-then-drain pattern as
/// monte_carlo_leakage_parallel. Oversplitting by 2 levels keeps the pool
/// busy when subtree sizes are skewed by pruning.
void parallel_split(SearchContext& ctx, int threads) {
  const int n = ctx.problem.netlist().num_control_points();
  const int split_levels =
      std::min({n, ceil_log2(static_cast<std::uint32_t>(threads)) + 2, 16});
  const std::uint32_t num_subtrees = 1u << split_levels;

  // Packed prescreen: bound every fixed prefix up front, 64 subtrees per
  // ternary pass. A worker skips a prescreened subtree without paying the
  // per-level incremental-engine descent. Safe: the prescreen bound equals
  // the engine bound bit-for-bit, and the incumbent it is compared against
  // can only have been larger at prescreen-check time than at the engine
  // check -- so everything skipped here would have been pruned anyway.
  std::vector<double> prefix_bounds;
  if (ctx.options.sim_backend == sim::SimBackend::kPacked) {
    prefix_bounds =
        packed_prefix_bounds(ctx.problem, ctx.bound_kind, split_levels, num_subtrees);
  }

  std::atomic<std::uint32_t> next{0};
  auto drain = [&ctx, &next, &prefix_bounds, split_levels, num_subtrees] {
    DfsWorker worker(ctx);
    for (;;) {
      const std::uint32_t subtree = next.fetch_add(1, std::memory_order_relaxed);
      if (subtree >= num_subtrees) return;
      if (ctx.out_of_budget()) return;
      if (!prefix_bounds.empty() &&
          prefix_bounds[subtree] >= ctx.incumbent.leakage() - 1e-12) {
        continue;
      }
      double bound = 0.0;
      for (int level = 0; level < split_levels; ++level) {
        bound = worker.engine().set_input(
            ctx.problem.input_order()[level],
            ((subtree >> level) & 1u) != 0 ? sim::Tri::kOne : sim::Tri::kZero);
      }
      if (bound < ctx.incumbent.leakage() - 1e-12) {
        worker.dfs(static_cast<std::size_t>(split_levels));
      }
      for (int level = 0; level < split_levels; ++level) worker.engine().undo();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

/// Word-parallel state-only probe sweep: 64 probes per PackedBoolSim pass,
/// per-lane leakage totals accumulated gate-by-gate by simd::select_add (the
/// exact FP sequence of evaluate_state_only's per-gate sum, so each lane's
/// total is bit-identical to the scalar probe evaluation). Each batch
/// offers only its best lane under the incumbent's total order (leakage,
/// then lexicographic sleep vector) -- equivalent to offering every lane,
/// since Incumbent::offer computes a global minimum under that same order.
/// Batches are drained through an atomic index like the scalar sweep.
void packed_probe_sweep(SearchContext& ctx, const std::vector<std::vector<bool>>& probes,
                        int threads) {
  const AssignmentProblem& problem = ctx.problem;
  const netlist::Netlist& netlist = problem.netlist();
  const int num_cps = netlist.num_control_points();
  const int num_gates = netlist.num_gates();

  // Per-cell fastest-variant leakage indexed by raw local state (the
  // per-gate term of evaluate_state_only's sum).
  std::vector<std::vector<double>> by_cell(netlist.library().cells().size());
  for (int g = 0; g < num_gates; ++g) {
    const auto cell = static_cast<std::size_t>(netlist.gate(g).cell_index);
    if (!by_cell[cell].empty()) continue;
    const std::uint32_t num_states = netlist.cell_of(g).topology().num_states();
    by_cell[cell].reserve(num_states);
    for (std::uint32_t s = 0; s < num_states; ++s) {
      by_cell[cell].push_back(problem.fastest_gate_leak_na(g, s));
    }
  }
  const netlist::FlatNetlist& flat = netlist.flat();
  const std::vector<simd::SelectGate> plan = sim::select_plan(
      flat, [&](std::uint32_t g) { return by_cell[flat.cell_index(g)].data(); });
  const sim::CircuitConfig config = sim::fastest_config(netlist);
  const std::size_t num_batches = (probes.size() + 63) / 64;

  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    if (ctx.deadline.expired() || ctx.cancelled()) return;
    sim::PackedBoolSim packed(netlist);
    std::vector<std::uint64_t> pi_words(static_cast<std::size_t>(num_cps));
    alignas(32) double totals[64];
    for (;;) {
      const std::size_t batch = next.fetch_add(1, std::memory_order_relaxed);
      if (batch >= num_batches || ctx.deadline.expired() || ctx.cancelled()) return;
      const std::size_t base = batch * 64;
      const int lanes = static_cast<int>(std::min<std::size_t>(64, probes.size() - base));
      for (int i = 0; i < num_cps; ++i) {
        std::uint64_t word = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          if (probes[base + static_cast<std::size_t>(lane)][static_cast<std::size_t>(i)]) {
            word |= 1ULL << lane;
          }
        }
        pi_words[static_cast<std::size_t>(i)] = word;
      }
      const std::vector<std::uint64_t>& words = packed.run(pi_words);
      std::fill(totals, totals + 64, 0.0);
      simd::select_add(totals, words.data(), plan.data(), plan.size());
      int best = 0;
      for (int lane = 1; lane < lanes; ++lane) {
        if (totals[lane] < totals[best] ||
            (totals[lane] == totals[best] &&
             probes[base + static_cast<std::size_t>(lane)] <
                 probes[base + static_cast<std::size_t>(best)])) {
          best = lane;
        }
      }
      ctx.leaves.fetch_add(static_cast<std::uint64_t>(lanes), std::memory_order_relaxed);
      Solution leaf;
      leaf.sleep_vector = probes[base + static_cast<std::size_t>(best)];
      leaf.config = config;
      leaf.leakage_na = totals[best];
      leaf.delay_ps = problem.budget().fast_delay_ps;
      leaf.states_explored = 1;
      ctx.incumbent.offer(std::move(leaf));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

/// Shared driver for Heu1/Heu2/exact/state-only: bounded DFS (serial or
/// root-split parallel) followed by the optional random-probe sweep.
/// With `SearchOptions::checkpoint_path` set the search is serial, resumes
/// from a matching checkpoint if one exists, snapshots periodically, and
/// on a clean finish deletes the checkpoint file.
Solution run_search(const AssignmentProblem& problem, const SearchOptions& caller_options,
                    BoundKind bound_kind, bool state_only) {
  SearchOptions options = caller_options;
  const bool checkpointing = !options.checkpoint_path.empty();
  const int n = problem.netlist().num_control_points();

  if (!options.subtree_prefix.empty()) {
    if (options.subtree_prefix.size() > static_cast<std::size_t>(n)) {
      throw ContractError("subtree_prefix longer than the input count");
    }
    // A subtree is one shard of a deterministic split: serial, and no
    // probe sweep -- the sweep is a whole-tree construct the coordinator
    // runs once; per-shard it would be duplicated work. Must happen
    // before the fingerprint below so coordinator-computed fingerprints
    // (which apply the same overrides) match.
    options.threads = 1;
    options.random_probes = 0;
  }
  if (!options.pinned_inputs.empty()) {
    if (options.pinned_inputs.size() != static_cast<std::size_t>(n)) {
      throw ContractError("pinned_inputs needs one entry per control point");
    }
    if (!options.subtree_prefix.empty()) {
      throw ContractError("pinned_inputs and subtree_prefix are mutually exclusive");
    }
    // Pins shrink the tree to the free inputs. The parallel root split and
    // its packed prescreen enumerate raw top-level prefixes and would flip
    // pinned values, so a pinned search runs serial -- the hierarchical
    // flow parallelizes across cones, not within one.
    options.threads = 1;
  }

  CheckpointSink sink;
  std::optional<SearchCheckpoint> resume;
  if (checkpointing) {
    if (resolve_thread_count(options.threads, 64) > 1) {
      log_warn("checkpointing forces a serial state search (threads 1)");
    }
    options.threads = 1;
  }
  // Checkpoint replay is a serial construct too.
  if (!options.resume_text.empty()) options.threads = 1;
  if (checkpointing || !options.resume_text.empty()) {
    sink.fingerprint = search_fingerprint(problem, options, bound_kind, state_only);
    std::optional<SearchCheckpoint> from_file;
    if (checkpointing) {
      sink.path = options.checkpoint_path;
      sink.every_s = options.checkpoint_every_s;
      sink.every_leaves = options.checkpoint_every_leaves;
      from_file = load_checkpoint_file(options.checkpoint_path, sink.fingerprint);
    }
    std::optional<SearchCheckpoint> from_text;
    if (!options.resume_text.empty()) {
      try {
        SearchCheckpoint blob = parse_checkpoint(options.resume_text);
        if (blob.fingerprint == sink.fingerprint) {
          from_text = std::move(blob);
        } else {
          log_warn("in-memory resume blob is for a different search; ignoring");
        }
      } catch (const std::exception& e) {
        log_warn(std::string("in-memory resume blob unusable (") + e.what() +
                 "); ignoring");
      }
    }
    // Resuming from any valid snapshot of the same search converges to the
    // identical result, so when both sources are usable the one with more
    // progress wins (a finished tree outranks any unfinished one; then
    // leaf/probe count) -- a speed choice, not a semantic one.
    const auto progress = [](const SearchCheckpoint& c) {
      return (c.tree_done ? 1ULL << 62 : 0ULL) + c.leaves + c.probes_done;
    };
    if (from_text && from_file) {
      resume = progress(*from_file) > progress(*from_text)
                   ? std::move(from_file)
                   : std::move(from_text);
    } else {
      resume = from_text ? std::move(from_text) : std::move(from_file);
    }
    // An empty path with an unfinished tree is a seed token (incumbent +
    // counters, no frontier yet): start from the root, do not replay.
    if (resume && !resume->tree_done && !resume->path.empty() &&
        resume->path.size() != static_cast<std::size_t>(n)) {
      log_warn("checkpoint path length mismatch; starting fresh");
      resume.reset();
    }
  }

  Timer timer;
  const double consumed_s = resume ? resume->elapsed_s : 0.0;
  SearchContext ctx(problem, options, bound_kind, state_only, consumed_s);
  if (resume) {
    ctx.nodes.store(resume->nodes, std::memory_order_relaxed);
    ctx.leaves.store(resume->leaves, std::memory_order_relaxed);
    Solution seed;
    seed.sleep_vector = resume->sleep_vector;
    seed.config = resume->config;
    seed.leakage_na = resume->leakage_na;
    seed.delay_ps = resume->delay_ps;
    ctx.incumbent.offer(std::move(seed));
    sink.tree_done = resume->tree_done;
    sink.probes_done = resume->probes_done;
    // Seed the last-leaf path and counter marks too, so an interrupt
    // before any new leaf re-snapshots the same frontier instead of an
    // empty one.
    sink.leaf_path = resume->path;
    sink.nodes_mark = resume->nodes;
    sink.leaves_mark = resume->leaves;
    log_info("resuming search from " +
             (options.checkpoint_path.empty() ? std::string("in-memory blob")
                                              : options.checkpoint_path) +
             " (" + std::to_string(resume->leaves) + " leaves done)");
  }
  if (checkpointing) {
    sink.base_elapsed_s = consumed_s;
    sink.run_timer = &timer;
    ctx.sink = &sink;
  }

  // The root split needs an uncapped leaf budget (a shared cap would make
  // the visited set depend on worker timing) and at least one level to
  // split on.
  const int threads = resolve_thread_count(options.threads, 64);
  const bool skip_tree = resume && resume->tree_done;
  if (!skip_tree) {
    if (threads > 1 && options.max_leaves == 0 && n >= 2) {
      // Phase 1 -- Heu1's serial descent seeds the shared incumbent, so the
      // parallel continued search keeps the serial guarantees: the first
      // leaf always completes and the result is never worse than Heu1.
      {
        DfsWorker seeder(ctx);
        seeder.descend();
      }
      parallel_split(ctx, threads);
    } else {
      DfsWorker worker(ctx);
      if (resume && !resume->path.empty()) worker.resume_from(&resume->path);
      worker.dfs(0);
    }
    // A cancelled tree is unfinished; anything else (completion, leaf cap,
    // deadline) moves the checkpoint frontier into the probe phase. The
    // finished tree's counters are deterministic, so they become the marks.
    if (!ctx.interrupted.load(std::memory_order_relaxed)) {
      sink.tree_done = true;
      sink.nodes_mark = ctx.nodes.load(std::memory_order_relaxed);
      sink.leaves_mark = ctx.leaves.load(std::memory_order_relaxed);
    }
  }

  // Probe random vectors after the tree search so the descent result is
  // only displaced by better (or equal-but-lexicographically-smaller)
  // vectors, never by probe luck. The whole probe set is pregenerated from
  // one serial Rng stream (the historical stream, so the vectors do not
  // depend on the worker count) and drained through an atomic index --
  // the same partition-then-drain pattern as the root split. Each worker
  // owns one LeafEvaluator, so per-probe cost is cone-local. Probes honor
  // the time limit -- none start once the deadline has passed (the tree
  // search above always completes its first leaf regardless) -- but not
  // `max_leaves`, which caps only the tree search, as it always has.
  if (options.random_probes > 0 && !ctx.deadline.expired() && !ctx.cancelled() &&
      sink.probes_done < static_cast<std::uint64_t>(options.random_probes)) {
    Rng rng(options.probe_seed);
    std::vector<std::vector<bool>> probes(
        static_cast<std::size_t>(options.random_probes));
    for (std::vector<bool>& vector : probes) {
      vector.resize(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < vector.size(); ++i) vector[i] = rng.next_bool();
      // Pinned bits are overwritten after generation so the Rng stream --
      // and hence every free bit -- matches the unpinned sweep's.
      for (std::size_t i = 0; i < options.pinned_inputs.size(); ++i) {
        const sim::Tri pin = options.pinned_inputs[i];
        if (pin != sim::Tri::kX) vector[i] = pin == sim::Tri::kOne;
      }
    }
    if (checkpointing) {
      // Serial indexed sweep so the frontier is a single resume index;
      // probes [0, probes_done) were evaluated before the interruption.
      LeafEvaluator evaluator(ctx.problem);
      for (std::size_t p = static_cast<std::size_t>(sink.probes_done);
           p < probes.size(); ++p) {
        if (ctx.deadline.expired() || ctx.cancelled()) break;
        Solution leaf =
            state_only ? evaluator.evaluate_state_only(probes[p])
                       : evaluator.evaluate_greedy(probes[p], options.gate_order);
        ctx.leaves.fetch_add(1, std::memory_order_relaxed);
        ctx.incumbent.offer(std::move(leaf));
        sink.probes_done = p + 1;
        sink.leaves_mark = ctx.leaves.load(std::memory_order_relaxed);
        maybe_write_checkpoint(ctx, /*force=*/false);
      }
    } else if (state_only && options.sim_backend == sim::SimBackend::kPacked) {
      // State-only probes are pure simulations, so they batch 64-wide;
      // greedy-mode probes run a full gate assignment each and stay scalar.
      packed_probe_sweep(
          ctx, probes,
          resolve_thread_count(options.threads,
                               static_cast<int>((probes.size() + 63) / 64)));
    } else {
      std::atomic<std::uint32_t> next{0};
      auto drain = [&ctx, &probes, &next, state_only] {
        // Skip the evaluator setup entirely when already out of time.
        if (ctx.deadline.expired() || ctx.cancelled()) return;
        LeafEvaluator evaluator(ctx.problem);
        for (;;) {
          const std::uint32_t p = next.fetch_add(1, std::memory_order_relaxed);
          if (p >= probes.size() || ctx.deadline.expired() || ctx.cancelled()) return;
          Solution leaf =
              state_only ? evaluator.evaluate_state_only(probes[p])
                         : evaluator.evaluate_greedy(probes[p], ctx.options.gate_order);
          ctx.leaves.fetch_add(1, std::memory_order_relaxed);
          ctx.incumbent.offer(std::move(leaf));
        }
      };
      const int probe_threads =
          resolve_thread_count(options.threads, options.random_probes);
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(probe_threads - 1));
      for (int t = 1; t < probe_threads; ++t) pool.emplace_back(drain);
      drain();
      for (std::thread& t : pool) t.join();
    }
  }

  const bool interrupted = ctx.interrupted.load(std::memory_order_relaxed);
  if (checkpointing) {
    if (interrupted) {
      // Final snapshot so the very last pre-interrupt work is never lost.
      // Must happen before take() empties the shared incumbent below.
      maybe_write_checkpoint(ctx, /*force=*/true);
    } else {
      std::remove(options.checkpoint_path.c_str());  // clean finish
    }
  }
  Solution best = ctx.incumbent.take();
  best.nodes_visited = ctx.nodes.load(std::memory_order_relaxed);
  best.states_explored = ctx.leaves.load(std::memory_order_relaxed);
  best.runtime_s = consumed_s + timer.seconds();
  best.interrupted = interrupted;
  return best;
}

}  // namespace

Solution heuristic1(const AssignmentProblem& problem, GateOrder gate_order) {
  SearchOptions options;
  options.gate_order = gate_order;
  return heuristic1(problem, options);
}

Solution heuristic1(const AssignmentProblem& problem, const SearchOptions& options) {
  SearchOptions heu1 = options;
  heu1.max_leaves = 1;
  heu1.time_limit_s = 0.0;
  heu1.exact_leaves = false;
  heu1.random_probes = 0;
  return run_search(problem, heu1, BoundKind::kMinVariant, /*state_only=*/false);
}

Solution heuristic2(const AssignmentProblem& problem, double time_limit_s,
                    GateOrder gate_order) {
  SearchOptions options;
  options.time_limit_s = time_limit_s;
  options.gate_order = gate_order;
  return heuristic2(problem, options);
}

Solution heuristic2(const AssignmentProblem& problem, const SearchOptions& options) {
  SearchOptions heu2 = options;
  heu2.exact_leaves = false;
  return run_search(problem, heu2, BoundKind::kMinVariant, /*state_only=*/false);
}

Solution exact_search(const AssignmentProblem& problem, const SearchOptions& options) {
  SearchOptions exact = options;
  exact.exact_leaves = true;
  exact.time_limit_s = options.time_limit_s > 0 ? options.time_limit_s : 1e9;
  return run_search(problem, exact, BoundKind::kMinVariant, /*state_only=*/false);
}

Solution state_only_search(const AssignmentProblem& problem, double time_limit_s) {
  SearchOptions options;
  options.time_limit_s = time_limit_s;
  options.random_probes = 256;  // leaf evaluation is a single O(G) simulation
  return state_only_search(problem, options);
}

Solution state_only_search(const AssignmentProblem& problem,
                           const SearchOptions& options) {
  return run_search(problem, options, BoundKind::kFastestVariant, /*state_only=*/true);
}

}  // namespace svtox::opt
