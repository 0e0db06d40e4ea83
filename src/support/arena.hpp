// Per-worker scratch arenas: pool-owned workspaces behind every hot path.
//
// The SSSP-dominated inner loops (engine cache refills, single-move scans,
// best-response branch evaluation) used to draw on a grab-bag of
// thread_local buffers plus per-call vector allocations (strategy
// to_vector(), DFS stacks, candidate/weight rows).  ScratchArena gathers all
// of that per-thread state into one object:
//
//   * the heap (detail::SsspQueue) and bucket-queue Dijkstra workspaces,
//     behind the one kernel selector sssp_into,
//   * the IncrementalSssp instance that builds best-response facility rows,
//   * the deviation engine's scan scratch (owned-target list, side marks,
//     DFS stack, distance-sum vector, host-weight row, addition-sum memo)
//     and its row-repair scratch,
//   * the best-response search setup (core/br_search.hpp BrSearchSetup:
//     candidates, base vector, host row, facility rows), shared by the
//     exact search and the approximate ladder, plus the search's driver
//     and branch scratch,
//   * the approximate ladder's greedy state.
//
// `worker_arena()` hands the calling thread its arena, creating and
// registering it on first use.  The worker pool's threads persist for the
// process lifetime, so after one warm-up pass every buffer has reached its
// steady-state capacity and the hot loops allocate nothing
// (tests/test_arena.cpp holds the zero-allocation probe).  Arenas are owned
// by a process-wide registry (not the threads), so `arena_stats()` can
// report fleet-wide footprint and tests can reason about reuse.
//
// Thread-safety: an arena is single-threaded by construction -- only the
// owning thread ever touches it.  Code holding one arena reference must not
// hand it to another thread, and nested users of the same thread must use
// disjoint members (the engine's scan path uses scan buffers + a Dijkstra
// workspace; a best-response search reads the setup its caller prepared,
// its branches use the branch partition and its row builds the
// IncrementalSssp -- the members are partitioned so no hot path aliases
// another's buffer).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/br_search.hpp"
#include "graph/dijkstra.hpp"
#include "graph/improvement_rows.hpp"
#include "graph/incremental_sssp.hpp"
#include "support/node_set.hpp"

namespace gncg {

class ScratchArena {
 public:
  /// SSSP from `source` into `dist` with this arena's workspaces: the
  /// bucket-queue kernel when `dial_bound` > 0 (HostGraph::dial_weight_bound
  /// certified integer weights up to it), the heap queue otherwise.  Both
  /// give bitwise-equal distances; this is the one place that picks between
  /// them.
  template <class NeighborFn>
  void sssp_into(std::vector<double>& dist, int n, int source, int dial_bound,
                 NeighborFn&& neighbor_fn) {
    if (dial_bound > 0) {
      dial_.run_into(dist, n, source, dial_bound,
                     std::forward<NeighborFn>(neighbor_fn));
    } else {
      dijkstra_.run_into(dist, n, source,
                         std::forward<NeighborFn>(neighbor_fn));
    }
  }

  /// Incremental SSSP: best-response facility-row builds (the parallel
  /// pass that precedes the branch fan-out).
  IncrementalSssp& incremental_sssp() { return sssp_; }

  /// Distance vector for sum-only SSSP queries (masked scans, strategy
  /// costs).  Distinct from the Dijkstra workspaces' internal vectors so a
  /// sum query never clobbers a caller-visible run() result.
  std::vector<double>& sum_dist() { return sum_dist_; }

  // --- deviation-engine scan scratch ---

  /// Owned purchase targets of the scanning agent (replaces per-scan
  /// NodeSet::to_vector()).
  std::vector<int>& owned_targets() { return owned_targets_; }

  /// Per-node side/reachability marks for bridge detection.
  std::vector<char>& side_mark() { return side_mark_; }

  /// Explicit DFS stack for reachability sweeps.
  std::vector<int>& dfs_stack() { return dfs_stack_; }

  /// Host weights w(u, x) of the scanning agent u, read once per scan.
  std::vector<double>& scan_weights() { return scan_weights_; }

  /// Per-scan memo of the addition sums A(x) by target (NaN = not computed).
  std::vector<double>& scan_memo() { return scan_memo_; }

  // --- deviation-engine row repair scratch ---
  //
  // Its own partition: a repair runs inside the engine's ensure(), which
  // callers reach between scans, so it must not alias the scan buffers or
  // the Dijkstra workspaces a refill on the same thread uses.

  struct RepairScratch {
    std::vector<char> affected_mark;  ///< per node; all zero between repairs
    std::vector<int> affected;  ///< marked nodes, also the marking worklist
    detail::SsspQueue queue;  ///< decrease-only Dijkstra queue (cleared,
                              ///< never shrunk, per repair)
  };
  RepairScratch& repair() { return repair_; }

  // --- best-response search (core/br_search.cpp) ---
  //
  // The driver partition: the setup (prepared by br_search_sum / br_search_max,
  // or by the approximate ladder for both of its tiers; its row table is
  // filled by a parallel pass, slot i written only by the task building
  // row i) and the search's outcome slots.  Read-only during the branch
  // fan-out except outcome slot i, which belongs to branch i.

  struct BrScratch {
    BrSearchSetup setup;
    /// Result of one first-level branch.  Slot i is written only by branch
    /// i's task and read by the driver's fold after the fan-out joins.  The
    /// vector never shrinks, so slot strategies keep their storage.
    struct Outcome {
      double cost = kInf;
      NodeSet strategy;
      bool improved = false;
      std::uint64_t evaluations = 0;
    };
    std::vector<Outcome> outcomes;
  };
  BrScratch& br() { return br_; }

  /// The branch partition: distance vector, undo log and chosen targets of
  /// the best-response branch running on this thread.
  struct BrBranchScratch {
    std::vector<double> dist;                  ///< min-merged distances
    std::vector<std::pair<int, double>> undo;  ///< (node, overwritten value)
    NodeSet current;                           ///< chosen candidate targets
  };
  BrBranchScratch& br_branch() { return br_branch_; }

  // --- approximate-BR ladder scratch (core/approx_br.cpp) ---
  //
  // The ladder prepares BrScratch::setup for both tiers; these members
  // hold what only its tier 1 keeps, disjoint from the search's driver and
  // branch scratch and from the shared IncrementalSssp the row builds use.
  // Tier 1 is done with them before tier 2 (exact rows only) starts.

  struct LadderScratch {
    std::vector<int> cand;          ///< oracle candidate shortlist
    IncrementalSssp sssp;           ///< tier-1 greedy's exact vector
    std::vector<double> thresholds; ///< tier-1 floor thresholds per round
    RowFloor floors;                ///< tier-1 probe brackets per round
    /// Tier-1 probe ranking: (padded floor, candidate index) pairs.
    std::vector<std::pair<double, int>> probe_rank;
  };
  LadderScratch& ladder() { return ladder_; }

  /// Bytes currently reserved across every buffer in this arena.
  std::size_t footprint_bytes() const;

 private:
  DijkstraBuffers dijkstra_;
  DialBuffers dial_;
  IncrementalSssp sssp_;
  std::vector<double> sum_dist_;
  std::vector<int> owned_targets_;
  std::vector<char> side_mark_;
  std::vector<int> dfs_stack_;
  RepairScratch repair_;
  BrScratch br_;
  BrBranchScratch br_branch_;
  LadderScratch ladder_;
  std::vector<double> scan_weights_;
  std::vector<double> scan_memo_;
};

/// The calling thread's arena, created and registered on first use.  Stable
/// for the thread's lifetime; pool workers persist for the process lifetime,
/// so each worker pays the creation exactly once.
ScratchArena& worker_arena();

/// Fleet-wide arena statistics (every arena ever registered, including ones
/// whose threads have exited -- the registry owns them).  Reads every
/// arena's buffers, so call it at quiescent points (no kernel running).
struct ArenaStats {
  std::size_t arenas = 0;
  std::size_t footprint_bytes = 0;
  /// Sum of per-arena footprint high-water marks (each arena's peak is
  /// sampled on arena_stats() calls, so bracket a workload with two calls
  /// to observe its peak).  An upper bound on the simultaneous peak, but
  /// attributable per worker.
  std::size_t peak_footprint_bytes = 0;
  /// Buffer shrinks taken process-wide: release_excess firings plus dial
  /// ring-array downsizings, summed over the per-worker
  /// instrument::Counter::kArenaShrinkEvents slots (0 when
  /// GNCG_INSTRUMENT=OFF).
  std::uint64_t shrink_events = 0;
};
ArenaStats arena_stats();

}  // namespace gncg
