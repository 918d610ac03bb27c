// Hierarchical standby optimization: partition -> boundary-aware level
// sweep -> stitch -> global greedy pass -> verify.
//
// Scales the paper's method to 100k..1M-gate circuits where the flat state
// tree is out of reach. The circuit is cut into gate-budgeted clusters
// (opt/partition.hpp); each cluster becomes an independent standby
// instance whose boundary signals are controllable primary inputs, solved
// through the Scheduler as parallel jobs (the content-addressed
// SolutionCache dedups structurally identical cones to one solve).
//
// Cones are dispatched level by level over the partition DAG (a
// partition's level is one more than the deepest partition driving any of
// its boundary inputs). When a level-L cone is scheduled, every boundary
// input driven by an already-solved upstream partition is *pinned* to its
// stitched simulated value (JobSpec::pinned_inputs), and its measured
// upstream arrival/slew from a global STA of the stitched-so-far config
// seeds the cone's timing (JobSpec::boundary_timing; the STA refreshes
// once ~1/16 of the gates were reconfigured since the last analysis, so
// deep partition DAGs do not pay one full-circuit analysis per level) --
// so the cone optimizes against its real logical and electrical context
// instead of a free-boundary relaxation. Same-level cones still run in parallel; both
// context strings are part of the cone's cache key, so hits stay sound.
//
// The stitch assembles one candidate on the real circuit:
//  * sleep bits: votes over the global control points in ascending
//    partition-id order within each level (deterministic under any worker
//    count), remaining points forced to 0;
//  * gate configs: copied per gate from the cone solutions (cells and pin
//    order are preserved by the canonical cone text, so variants and pin
//    mappings transfer verbatim).
//
// The cones are what the exponential part -- the sleep vector -- needs.
// Once it is fixed, the gate assignment is the paper's polynomial
// gate-tree descent, so one global opt::assign_gates_greedy pass at the
// stitched sleep vector settles the gates. It starts from all-fastest and
// so always meets the constraint; the cone gate configs only feed the
// boundary-timing seeds of later levels. The state-only baseline assigns
// no gates (its cones return all-fastest configs), so its stitch is kept
// as is. The final config is confirmed by one from-scratch STA, and its
// leakage is a full 2-valued simulation of the stitched sleep vector plus
// exact table evaluation -- no cone-level approximation survives into the
// reported number.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"
#include "opt/partition.hpp"
#include "opt/solution.hpp"
#include "sta/sta.hpp"

namespace svtox::svc {

struct HierOptions {
  opt::PartitionOptions partition;
  /// Per-cone method: state|heu1|heu2|exact. vtstate is rejected: the
  /// global gate pass runs over the library `netlist` is bound to, so the
  /// Vt+state baseline is heu2 with `vt_only`.
  std::string method = "heu1";
  /// Global delay penalty; each cone is solved at this fraction of its
  /// own fast/slow spread.
  double penalty_fraction = 0.05;
  /// Scheduler worker threads (0 = all hardware threads).
  int workers = 0;
  /// Per-cone search budget (heu2/state-only; heu1 ignores it).
  double time_limit_s = 1.0;
  /// Monte-Carlo vectors per cone job (cones only need the baseline for
  /// their reduction stat, so this stays small).
  int random_vectors = 64;
  std::uint64_t seed = 2004;
  /// Library build knobs; must describe the library `netlist` is bound to
  /// (the cone jobs rebuild the library from these flags).
  bool nitrided = false;
  bool two_point = false;
  bool uniform_stack = false;
  bool vt_only = false;
  /// Solution-cache disk directory for cone solutions; empty = memory only.
  std::string cache_dir;
  /// Pin boundary inputs driven by already-solved upstream partitions to
  /// their stitched simulated values (the level sweep). Off reproduces the
  /// legacy free-boundary relaxation.
  bool pin_boundaries = true;
  /// Seed each cone's boundary inputs with the measured upstream
  /// arrival/slew from the global STA of the stitched-so-far config.
  bool seed_boundary_timing = true;
};

struct HierResult {
  /// The stitched global solution: sleep vector over
  /// Netlist::control_points(), per-gate config, exact leakage and delay.
  opt::Solution solution;
  sta::DelayBudget budget;   ///< Global all-fast / all-slow endpoints.
  double constraint_ps = 0.0;
  int partitions = 0;
  std::uint64_t unique_solves = 0;  ///< Cone jobs actually executed.
  std::uint64_t cache_hits = 0;     ///< Cone jobs served from the cache.
  int repaired_gates = 0;  ///< Gates whose config the global greedy
                           ///< pass changed from the stitched one
                           ///< (0 for state).
  int levels = 0;          ///< Depth of the partition DAG sweep.
  /// Always 0 (the flow has no refine loop); kept for the perfbench
  /// `hier.refine_*` counters, which read them.
  int refine_passes_run = 0;
  int refine_accepted = 0;
  double runtime_s = 0.0;
};

/// Runs the hierarchical flow on `netlist`. The result's delay respects
/// the global constraint (verified by a from-scratch STA on the chosen
/// assignment). Throws on cone-job failures and invalid options.
HierResult optimize_hierarchical(const netlist::Netlist& netlist,
                                 const HierOptions& options = {});

}  // namespace svtox::svc
