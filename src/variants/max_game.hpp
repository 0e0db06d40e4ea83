// The MAX (egalitarian) variant of the game.
//
// The paper studies the SUM version -- agents minimize their *total*
// distance.  The literature it builds on also studies the MAX version
// (Demaine et al.'s max-NCG; Bilò et al.'s max-distance game on host
// graphs, both cited in Section 1.2), where an agent pays its worst-case
// distance instead:
//     cost_max(u) = alpha * w(u, S_u) + max_v d_G(u, v).
// This module provides the egalitarian cost, the pruned exact best
// response (the admissible floor is alpha * w(S) + the host-closure
// eccentricity of u), equilibrium checks and the social cost, so the two
// objectives can be compared on identical hosts.
#pragma once

#include "core/best_response.hpp"
#include "core/game.hpp"

namespace gncg {

class DeviationEngine;

/// alpha * w(u, S_u) + max_v d_G(u, v)  (kInf when disconnected).
double max_agent_cost(const Game& game, const StrategyProfile& s, int u);

/// Engine-backed egalitarian cost: buying cost plus the maximum of the
/// engine's cached distance vector (no environment rebuild).
double max_agent_cost(DeviationEngine& engine, int u);

/// Sum of egalitarian agent costs.
double max_social_cost(const Game& game, const StrategyProfile& s);

/// Egalitarian social cost of a bare network: alpha * w(E) + sum of
/// weighted eccentricities.
double max_network_social_cost(const Game& game,
                               const std::vector<Edge>& network);

/// Exact best response under the egalitarian objective.  Runs the shared
/// incremental branch-and-bound driver (core/br_search.hpp) with the MAX
/// cost model -- the same skeleton as exact_best_response, so the sum/max
/// searches cannot diverge.
BestResponseResult max_exact_best_response(
    const Game& game, const StrategyProfile& s, int u,
    const BestResponseOptions& options = {});

/// Engine-backed variant: borrows the engine's materialized adjacency for
/// the environment (no rebuild).  Batch callers reuse one engine.
BestResponseResult max_exact_best_response(
    const DeviationEngine& engine, int u,
    const BestResponseOptions& options = {});

/// True when agent u has a strictly cheaper egalitarian strategy.
bool max_has_improving_deviation(const Game& game, const StrategyProfile& s,
                                 int u);

/// Engine-backed early-exit existence check.
bool max_has_improving_deviation(DeviationEngine& engine, int u);

/// Pure NE check under the egalitarian objective (one engine reused across
/// the agent loop).
bool max_is_nash_equilibrium(const Game& game, const StrategyProfile& s);

}  // namespace gncg
