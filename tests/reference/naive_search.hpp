// Frozen reference searches: the differential baselines the production
// searches are gated against.
//
// Each one pays a fresh Dijkstra over the AgentEnvironment per candidate
// subset or move, sequentially, with no caching, no incremental repair and
// no delta evaluation -- simple enough to trust by reading.  The incremental
// best-response engine (core/br_search.hpp) must match the exact searches,
// and the DeviationEngine (core/deviation_engine.hpp) the single-move scans.
// They live outside src/ so the shipped library carries one search per job;
// the tests and bench_br_search link them as the `gncg_reference` library.
#pragma once

#include "core/best_response.hpp"
#include "core/game.hpp"

namespace gncg {

/// The part of BestResponseOptions the reference search honours.  It always
/// searches every purchasable target with exact distances: restricted and
/// bounded-frontier searches have no naive counterpart.
struct NaiveBrOptions {
  /// Pruning bound: subtrees that cannot strictly beat it are cut.
  double incumbent = kInf;
  /// Stop at the first strategy that strictly beats the incumbent.
  bool first_improvement = false;
};

/// Pre-refactor exact search under the SUM objective: a pruned DFS over
/// weight-sorted purchase targets, one fresh Dijkstra per visited subset,
/// global host-sum floor only.  `cost` is the running DFS accumulator, whose
/// low-order bits depend on the visit order; compare it through
/// AgentEnvironment::cost_of(strategy).
BestResponseResult naive_exact_best_response(const Game& game,
                                             const StrategyProfile& s, int u,
                                             const NaiveBrOptions& options = {});

/// The same search under the MAX (egalitarian) objective: the eccentricity
/// replaces the distance sum, the host eccentricity the host-sum floor.
BestResponseResult naive_max_exact_best_response(
    const Game& game, const StrategyProfile& s, int u,
    const NaiveBrOptions& options = {});

/// Single-move scans (the Greedy, Add-only and swap move sets): one fresh
/// Dijkstra per candidate move, in the scan order and tie-breaking the
/// DeviationEngine replicates.
SingleMoveResult naive_best_single_move(const Game& game,
                                        const StrategyProfile& s, int u);
SingleMoveResult naive_best_addition(const Game& game,
                                     const StrategyProfile& s, int u);
SingleMoveResult naive_best_swap(const Game& game, const StrategyProfile& s,
                                 int u);

}  // namespace gncg
