// Incremental best-response search: the shared branch-and-bound driver.
//
// Computing a best response is NP-hard in every variant of the game
// (Corollary 1, Theorems 13 and 16), so the exact solver is a pruned
// exponential DFS over subsets of purchase targets.  This module is the one
// driver behind both objectives -- SUM (the paper's cost) and MAX (the
// egalitarian variant) differ only in a cost-model policy -- and it replaces
// the pay-one-Dijkstra-per-subset search:
//
//  * In-DFS distance maintenance on facility rows, the paper's Theorem 3
//    reduction to facility location.  Every new edge leaves u, so a
//    shortest path uses at most one of them, first, and
//    d_S(t) = min(d_base(t), min over c in S of row_c(t)), where row_c is
//    the single-insert repair of the base vector by (u, c).  One Dijkstra
//    per search seeds the base vector; a parallel pass before the branch
//    fan-out builds each candidate's improvement row once per search
//    (BrSearchSetup::build_rows; only for candidates past the O(1) global
//    entry cut, since a candidate failing it at the root fails it at every
//    depth), and the fan-out reads the row table read-only.  A branch keeps
//    its own distance vector: inserting c min-merges row_c with an undo
//    log, and backtracking replays the log.  The rows are repairs *from u*,
//    so their path sums round exactly as in a Dijkstra from u, and the min
//    over rows is the multi-insert least fixpoint bit for bit.  Each subset
//    is evaluated with one O(n) aggregation pass.  The rows must be exact:
//    a capped table that truncated is the approximate ladder's tier-1
//    input only, and the search contract-checks it never receives one.
//  * Two-level admissible pruning: the global floor cuts first, O(1) per
//    candidate.  It is the distance term of u's host row, built once per
//    search in O(n): the in-order row sum for SUM (bitwise equal to
//    host_distance_sum(u) by the host-backend contract, with no all-pairs
//    precompute on implicit backends), the host eccentricity for MAX.
//    Surviving candidates face the tighter per-node floor
//        sum/max over t of  max(d_H(u, t), min(d_S(t), w_next)),
//    admissible because every path in a superset graph either avoids the
//    new edges (length >= current d_S(t)) or starts with one (length >=
//    w_next, the smallest remaining candidate weight; new edges are all
//    incident to the source, so a shortest path uses at most one, first).
//  * Deterministic parallel fan-out: first-level branches (partitioned by
//    smallest chosen candidate index) run over the shared worker pool with
//    branch-local incumbents and are folded in branch order (strict
//    improvement to replace), which reproduces the sequential DFS's
//    first-found-among-ties answer -- the smaller-lexicographic strategy in
//    candidate order wins -- independent of thread count.  First-improvement
//    searches abort branch i once a branch j < i has improved (branch i's
//    result could never win the fold), so `evaluations` alone may vary with
//    timing in that mode; strategy/cost/improved never do.
//
// Bit-compatibility with the naive per-subset-Dijkstra search (the frozen
// reference in tests/reference/naive_search.hpp) is the contract: identical
// strategies on hosts whose distinct costs are separated by more than the
// improves() slack (unit, 1-2, integer weights;
// real-weight near-ties agree to ~1e-12 relative), with one deliberate
// strengthening on the cost itself -- evaluation here is *canonical* (the
// edge-weight term is re-summed per subset in increasing target order), so
// the returned cost equals AgentEnvironment::cost_of(strategy) bitwise.
// The naive search instead records its running DFS accumulator, whose
// low-order bits depend on which sibling subtrees were explored first, so
// naive costs are compared through re-evaluation.
// tests/test_best_response.cpp carries the differential fuzz gate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/game.hpp"
#include "graph/improvement_rows.hpp"

namespace gncg {

// --- cost models ----------------------------------------------------------
//
// A model supplies the distance aggregation and the per-node admissible
// floor.  Aggregations run in increasing node order so SUM stays
// bit-identical to the naive search's "fresh Dijkstra, sum in node order"
// evaluation.  The approximate ladder (core/approx_br.cpp) costs and
// certifies with SumCostModel too; MaxCostModel (core/br_search.cpp) serves
// the MAX search only.

struct SumCostModel {
  static double distance_term(const std::vector<double>& dist) {
    double total = 0.0;
    for (double d : dist) total += d;
    return total;
  }

  /// Per-node floor for any superset reachable from the current DFS node:
  /// d(t) >= max(d_H(u,t), min(d_S(t), w_next)).  Any path either avoids
  /// the new edges (>= d_S(t)) or starts with one (all new edges are
  /// incident to the source, so a shortest path uses at most one, first;
  /// its weight alone is >= w_next, the smallest remaining candidate).
  static double tight_floor(const std::vector<double>& host_row,
                            const std::vector<double>& dist, double w_next) {
    double total = 0.0;
    for (std::size_t t = 0; t < dist.size(); ++t)
      total += std::max(host_row[t], std::min(dist[t], w_next));
    return total;
  }
};

/// Every input of one agent's best-response search: the facility-location
/// instance of Theorem 3.  prepare_br_setup fills it and build_rows adds
/// the facility rows; the search and the approximate ladder's two tiers
/// read this one copy.  Lives in the calling worker's arena
/// (ScratchArena::BrScratch), so warmed searches allocate nothing.
struct BrSearchSetup {
  /// Purchase targets, (weight, id)-sorted, purchasable, duplicate-free.
  std::vector<int> candidates;
  std::vector<double> weights;     ///< edge weight per candidate
  std::vector<double> weight_row;  ///< buy weight by node id, kInf off-list
  std::vector<double> base;        ///< u's distances in the environment
  std::vector<double> host_row;    ///< host_distance(u, v) by node id
  /// Facility rows of candidates [0, rows.size()), built from `base` under
  /// `repair_cap` distance overwrites (0 = exact rows).
  ImprovementRows rows;
  std::size_t repair_cap = 0;
  std::vector<std::pair<double, int>> order;  ///< candidate sort scratch

  /// Extends `rows` to the first min(count, candidates.size()) candidates;
  /// rows already built stay.  A parallel pass.
  void build_rows(const AgentEnvironment& env, std::size_t count);

  /// True when no built row was truncated by the cap: the min-merge of the
  /// rows is then the exact d_S, which the search requires.
  bool rows_exact() const;

  /// Canonical edge sum of a strategy: weight_row summed in increasing
  /// target order (AgentEnvironment::cost_of's order), so a cost built on
  /// it is a function of the strategy alone.
  double edge_sum(const NodeSet& targets) const {
    double total = 0.0;
    targets.for_each(
        [&](int v) { total += weight_row[static_cast<std::size_t>(v)]; });
    return total;
  }

  std::size_t footprint_bytes() const;
};

/// The one builder of BrSearchSetup for env.agent(): candidates (every
/// purchasable target, or only the purchasable entries of
/// `restrict_targets` -- the spatial oracle's shortlist -- with exact
/// repeats collapsed; the same sort key either way, so a full-coverage list
/// reproduces the unrestricted order bit for bit), their weights and weight
/// row, the base vector (one Dijkstra over the environment,
/// ScratchArena::sssp_into) and the host row.  The row table is emptied;
/// rows are built under `repair_cap` by build_rows (a positive cap only for
/// the ladder, whose tier 1 reads truncated rows).
void prepare_br_setup(const AgentEnvironment& env,
                      const std::vector<int>* restrict_targets,
                      std::size_t repair_cap, BrSearchSetup& setup);

/// SUM-objective search: distance term is sum_t d(t).  Used by
/// exact_best_response; `env.agent()` is the deviating agent and
/// `env.game()` the game searched (one source of truth -- a separate game
/// parameter could silently disagree with the environment's).  Prepares
/// the calling worker's setup from options.restrict_targets, with exact
/// rows, then searches it.
BestResponseResult br_search_sum(const AgentEnvironment& env,
                                 const BestResponseOptions& options);

/// MAX-objective search: distance term is max_t d(t) (eccentricity).  Used
/// by max_exact_best_response.
BestResponseResult br_search_max(const AgentEnvironment& env,
                                 const BestResponseOptions& options);

/// Out-parameter form of br_search_sum: writes into `result`, reusing its
/// strategy's storage, so a warmed loop of full-mode searches allocates
/// nothing.
void br_search_sum(const AgentEnvironment& env,
                   const BestResponseOptions& options,
                   BestResponseResult& result);

/// SUM search over a prepared setup (the ladder's tier 2): full mode
/// against `incumbent`.  Builds any row the search needs that `setup`
/// lacks; contract-checks that every row is exact (a cap that never
/// fired): with a truncated row the min-merge only upper-bounds d_S.
void br_search_sum(const AgentEnvironment& env, BrSearchSetup& setup,
                   double incumbent, BestResponseResult& result);

/// Builds rows[0..count) of `rows` from the agent's environment vector
/// `base`: row i is the single-insert improvement row of the edge
/// (env.agent(), targets[i]) of weight weights[i], capped at `repair_cap`
/// distance overwrites (0 = exact), with its truncation key.  Rows already
/// in the table stay, so a table of `count` or more rows is left as is.  A
/// parallel pass: row i is built on whichever worker claims it, with that
/// worker's IncrementalSssp, so the calling thread's own IncrementalSssp is
/// free.
void build_improvement_rows(const AgentEnvironment& env,
                            const std::vector<int>& targets,
                            const std::vector<double>& weights,
                            const std::vector<double>& base,
                            std::size_t repair_cap, std::size_t count,
                            ImprovementRows& rows);

}  // namespace gncg
