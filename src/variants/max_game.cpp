#include "variants/max_game.hpp"

#include <algorithm>

#include "core/br_search.hpp"
#include "core/deviation_engine.hpp"
#include "graph/graph_algos.hpp"

namespace gncg {

double max_agent_cost(const Game& game, const StrategyProfile& s, int u) {
  const AgentEnvironment env(game, s, u);
  double edge_weight = 0.0;
  s.strategy(u).for_each([&](int v) { edge_weight += game.weight(u, v); });
  return game.alpha() * edge_weight + env.eccentricity_of(s.strategy(u));
}

double max_agent_cost(DeviationEngine& engine, int u) {
  const std::vector<double>& dist = engine.distances(u);
  double ecc = 0.0;
  for (double d : dist) ecc = std::max(ecc, d);
  return engine.buying_cost(u) + ecc;
}

double max_social_cost(const Game& game, const StrategyProfile& s) {
  double total = 0.0;
  for (int u = 0; u < game.node_count(); ++u)
    total += max_agent_cost(game, s, u);
  return total;
}

double max_network_social_cost(const Game& game,
                               const std::vector<Edge>& network) {
  WeightedGraph g(game.node_count());
  double edge_weight = 0.0;
  for (const auto& e : network) {
    GNCG_CHECK(game.can_buy(e.u, e.v), "network contains a forbidden edge");
    g.add_edge(e.u, e.v, game.weight(e.u, e.v));
    edge_weight += game.weight(e.u, e.v);
  }
  double ecc_total = 0.0;
  for (double e : eccentricities(g)) ecc_total += e;
  return game.alpha() * edge_weight + ecc_total;
}

BestResponseResult max_exact_best_response(const Game& game,
                                           const StrategyProfile& s, int u,
                                           const BestResponseOptions& options) {
  const AgentEnvironment env(game, s, u);
  return br_search_max(env, options);
}

BestResponseResult max_exact_best_response(const DeviationEngine& engine,
                                           int u,
                                           const BestResponseOptions& options) {
  const AgentEnvironment env(engine, u);
  return br_search_max(env, options);
}

bool max_has_improving_deviation(const Game& game, const StrategyProfile& s,
                                 int u) {
  DeviationEngine engine(game, s);
  return max_has_improving_deviation(engine, u);
}

bool max_has_improving_deviation(DeviationEngine& engine, int u) {
  BestResponseOptions options;
  options.incumbent = max_agent_cost(engine, u);
  options.first_improvement = true;
  return max_exact_best_response(engine, u, options).improved;
}

bool max_is_nash_equilibrium(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  for (int u = 0; u < game.node_count(); ++u)
    if (max_has_improving_deviation(engine, u)) return false;
  return true;
}

}  // namespace gncg
