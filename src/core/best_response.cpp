#include "core/best_response.hpp"

#include <algorithm>

#include "core/br_search.hpp"
#include "core/deviation_engine.hpp"
#include "graph/dijkstra.hpp"

namespace gncg {

AgentEnvironment::AgentEnvironment(const Game& game, const StrategyProfile& s,
                                   int u)
    : game_(&game), agent_(u) {
  const int n = game.node_count();
  GNCG_CHECK(u >= 0 && u < n, "agent out of range");
  owned_.resize(static_cast<std::size_t>(n));
  for (int owner = 0; owner < n; ++owner) {
    if (owner == u) continue;
    s.strategy(owner).for_each([&](int target) {
      const double w = game.weight(owner, target);
      owned_[static_cast<std::size_t>(owner)].push_back({target, w});
      owned_[static_cast<std::size_t>(target)].push_back({owner, w});
    });
  }
}

AgentEnvironment::AgentEnvironment(const DeviationEngine& engine, int u)
    : game_(&engine.game()), agent_(u) {
  const int n = game_->node_count();
  GNCG_CHECK(u >= 0 && u < n, "agent out of range");
  // Edges that exist only because u buys them are masked in
  // for_neighbors; edges u and a neighbor both buy stay (the neighbor keeps
  // paying in the environment).
  borrowed_ = &engine.adjacency();
  borrowed_profile_ = &engine.profile();
}

namespace {

/// Neighbor callback of (environment + edges from the agent to `targets`).
auto with_targets(const AgentEnvironment& env, const NodeSet& targets) {
  return [&env, &targets](int x, auto&& visit) {
    const int u = env.agent();
    env.for_neighbors(x, visit);
    if (x == u) {
      targets.for_each([&](int v) { visit(v, env.game().weight(u, v)); });
    } else if (targets.contains(x)) {
      visit(u, env.game().weight(u, x));
    }
  };
}

}  // namespace

double AgentEnvironment::distance_cost_of(const NodeSet& targets) const {
  return distance_sum_over(game_->node_count(), agent_,
                           with_targets(*this, targets));
}

double AgentEnvironment::eccentricity_of(const NodeSet& targets) const {
  std::vector<double> dist;
  dijkstra_over(game_->node_count(), agent_, with_targets(*this, targets),
                dist);
  double worst = 0.0;
  for (double d : dist) worst = std::max(worst, d);
  return worst;
}

double AgentEnvironment::cost_of(const NodeSet& targets) const {
  double edge_weight = 0.0;
  targets.for_each([&](int v) { edge_weight += game_->weight(agent_, v); });
  return game_->alpha() * edge_weight + distance_cost_of(targets);
}

BestResponseResult exact_best_response(const Game& game,
                                       const StrategyProfile& s, int u,
                                       const BestResponseOptions& options) {
  const AgentEnvironment env(game, s, u);
  return br_search_sum(env, options);
}

BestResponseResult exact_best_response(const DeviationEngine& engine, int u,
                                       const BestResponseOptions& options) {
  const AgentEnvironment env(engine, u);
  return br_search_sum(env, options);
}

void exact_best_response(const DeviationEngine& engine, int u,
                         const BestResponseOptions& options,
                         BestResponseResult& result) {
  const AgentEnvironment env(engine, u);
  br_search_sum(env, options, result);
}

bool has_improving_deviation(const Game& game, const StrategyProfile& s,
                             int u) {
  DeviationEngine engine(game, s);
  return has_improving_deviation(engine, u);
}

bool has_improving_deviation(DeviationEngine& engine, int u) {
  BestResponseOptions options;
  options.incumbent = engine.agent_cost(u);
  options.first_improvement = true;
  return exact_best_response(engine, u, options).improved;
}

SingleMoveResult best_single_move(const Game& game, const StrategyProfile& s,
                                  int u) {
  DeviationEngine engine(game, s);
  return engine.best_single_move(u);
}

SingleMoveResult best_addition(const Game& game, const StrategyProfile& s,
                               int u) {
  DeviationEngine engine(game, s);
  return engine.best_addition(u);
}

SingleMoveResult best_swap(const Game& game, const StrategyProfile& s, int u) {
  DeviationEngine engine(game, s);
  return engine.best_swap(u);
}

void apply_move(StrategyProfile& s, int u, const SingleMove& move) {
  switch (move.type) {
    case MoveType::kNone:
      return;
    case MoveType::kAdd:
      s.add_buy(u, move.add);
      return;
    case MoveType::kDelete:
      s.remove_buy(u, move.remove);
      return;
    case MoveType::kSwap:
      s.remove_buy(u, move.remove);
      s.add_buy(u, move.add);
      return;
  }
}

}  // namespace gncg
