// Approximate best response: the two-tier ladder for large geometric
// games.
//
// Exact best response is NP-hard (Corollary 1), and even the pruned
// branch-and-bound of core/br_search.hpp enumerates subsets of *all* n-1
// purchase targets.  On geometric hosts most of those targets are useless:
// a far-away node is reached more cheaply through a near neighbor than by a
// direct edge.  The ladder exploits this through the spatial candidate
// oracle (HostBackend::candidate_targets -- grid-accelerated on euclidean
// backends) and climbs two tiers, each with a certified quality bound:
//
//  * Setup.  One best-response search setup per call (core/br_search.hpp
//    BrSearchSetup): the shortlist as the candidates, the base vector, the
//    host row and one facility row per candidate, capped at repair_cap
//    overwrites, with its truncation key.  Both tiers read it.
//  * Tier 1 -- greedy over the rows.  Starting from the empty strategy,
//    repeatedly add a candidate edge that strictly decreases the cost.
//    Each probe is an O(row) admissible floor (graph/improvement_rows.hpp
//    RowFloor); only probes whose floor can win pay a full exact repair,
//    and only an exact strict improvement commits (canonical cost
//    evaluation as in br_search).  With exact rows (cap 0, or a cap that
//    never fired) each round takes the best such candidate, in shortlist
//    order on ties, probing over the committed strategy's exact vector;
//    with truncated rows one pass in floor order (each row alone over the
//    base vector) keeps every candidate that improves.
//  * Tier 2 -- exact search restricted to the shortlist.  br_search over
//    the ladder's setup: the true minimum c_C over strategies inside the
//    candidate set C.  Tier 2 runs only when tier 1 could not certify its
//    result exact and every row is exact: a call with a truncated row
//    returns tier 1's strategy with tier 1's any-strategy certificate.
//
// Certification.  Every tier reports an admissible lower bound LB on the
// *unrestricted* best-response cost and beta = cost / LB.  The bound is the
// PR 5 floor contract re-used as an escape bound: any strategy buying at
// least one edge outside C pays at least
//     escape_lb = alpha * w_out_min + tight_floor(host_row, base_dist,
//                                                 w_min_all)
// where w_out_min is the cheapest purchasable non-candidate edge, and
// tight_floor is the per-node admissible floor
//     sum_t max(d_H(u,t), min(d_base(t), w_min_all))
// (any path either avoids new edges, length >= the empty-strategy distance,
// or starts with one, whose weight alone is >= w_min_all -- new edges are
// all incident to the source).  Hence after tier 2,
//     LB = min(c_C, escape_lb)
// and when escape_lb cannot strictly beat c_C the restricted optimum *is*
// the unrestricted one: the result is certified exact (beta = 1) without
// ever enumerating outside the shortlist.  tests/test_approx_br.cpp holds
// the differential gates (full-coverage shortlist == naive exact search,
// bitwise).
#pragma once

#include <cstdint>

#include "core/best_response.hpp"
#include "core/game.hpp"

namespace gncg {

/// Options for the approximate-BR ladder.
struct ApproxBrOptions {
  /// Candidate-shortlist size handed to the spatial oracle; <= 0 picks the
  /// default (min(n-1, 16)).  budget >= n-1 makes tier 2 the unrestricted
  /// exact search.
  int budget = 0;
  /// The agent's current cost; `improved` reports a strict win over it.
  double incumbent = kInf;
  /// Bounded-frontier repair cap (graph/incremental_sssp.hpp): with a
  /// positive cap, every facility row stops after `repair_cap` distance
  /// overwrites and keeps its frontier key.  Truncated rows yield certified
  /// *underestimates* used only to rank and skip tier-1 probes; a strategy
  /// is adopted only after a full exact repair, so `cost` stays an achieved
  /// (canonical) cost.  A call with any truncated row ends after tier 1.
  /// 0 = exact rows everywhere (the historical ladder, bit-for-bit), as is
  /// a cap that never fires.
  std::size_t repair_cap = 0;

  /// Agent u's SSSP row in the *current built network* (including u's own
  /// edges), e.g. DeviationEngine::distances_warm(u).  When set, the ladder
  /// folds the current-network floor into its certificates: every new edge
  /// (u,x) costs at least d_cur(x) - G where G = max_x (d_cur(x) - w(u,x)),
  /// so node t sits at distance >= min(d_base(t), max(w_min, d_cur(t) - G))
  /// in any deviation -- usually far tighter than the bare w_min floor on
  /// near-equilibrium profiles.  nullptr = the PR 7 certificates unchanged.
  /// The pointee must outlive the call.
  const std::vector<double>* current_dist = nullptr;
};

/// Result of an approximate-BR ladder run.
struct ApproxBrResult {
  NodeSet strategy;               ///< best strategy found
  double cost = kInf;             ///< canonical agent cost of `strategy`
  double lower_bound = 0.0;       ///< admissible LB on the unrestricted BR
  double beta = 1.0;              ///< cost / lower_bound (kInf when LB == 0)
  int tier = 1;                   ///< highest tier that ran (1 or 2)
  bool exact = false;             ///< certified equal to the unrestricted BR
  bool improved = false;          ///< beat options.incumbent strictly
  int candidates = 0;             ///< shortlist size actually used
  std::uint64_t evaluations = 0;  ///< candidate evaluations across tiers
};

class DeviationEngine;

/// Approximate best response of agent u against the rest of profile `s`.
ApproxBrResult approx_best_response_ladder(const Game& game,
                                           const StrategyProfile& s, int u,
                                           const ApproxBrOptions& options = {});

/// Engine-backed variant: borrows the engine's materialized adjacency for
/// the environment (no copy), like exact_best_response.
ApproxBrResult approx_best_response_ladder(const DeviationEngine& engine,
                                           int u,
                                           const ApproxBrOptions& options = {});

/// One agent's entry in a batched certification pass.
struct CertifiedAgent {
  int agent = -1;
  /// The agent's cost in the profile being certified (the incumbent the
  /// ladder ran against); eps_u = max(0, current_cost - result.lower_bound)
  /// bounds the agent's achievable regret.
  double current_cost = kInf;
  ApproxBrResult result;
};

/// Batched near-equilibrium certification: runs the ladder for every agent
/// in `agents` against the engine's current profile and returns one
/// CertifiedAgent per entry, in input order.
///
/// Compared to a loop of cold approx_best_response_ladder calls this
///  * shares one engine across the batch and lazily materializes exactly the
///    sampled agents' current-network rows (a full warm pass would be O(n^2)
///    memory at large n), seeding each agent's incumbent and current-network
///    floor (ApproxBrOptions::current_dist) from its cached row;
///  * processes agents in spatial-locality order (grid cell on euclidean
///    hosts, host-distance-to-anchor otherwise) so consecutive ladders
///    touch overlapping neighborhoods while the adjacency slab is hot.
/// Per-agent options (budget, repair_cap) come from
/// `options`; incumbent and current_dist are overwritten per agent.
std::vector<CertifiedAgent> certify_agents(DeviationEngine& engine,
                                           const std::vector<int>& agents,
                                           const ApproxBrOptions& options = {});

}  // namespace gncg
