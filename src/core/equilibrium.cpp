#include "core/equilibrium.hpp"

#include <algorithm>

#include "core/deviation_engine.hpp"

namespace gncg {

namespace {

/// Ratio current/best with the 0/0 -> 1 and x/0 -> inf conventions.
///
/// Infinite best: the best-response search ranges over every strategy
/// including the current one, so best <= current always holds and an
/// infinite best implies an infinite current cost (the host cannot connect
/// the agent at all).  inf/inf is taken as 1: the agent is at its optimum
/// among all-infinite options and cannot improve, so it contributes no
/// approximation slack.  A finite current with infinite best would indicate
/// a solver bug; the convention still reports 1 (no improvement possible).
double cost_ratio(double current, double best) {
  if (!(best < kInf)) return 1.0;
  if (best == 0.0) return current == 0.0 ? 1.0 : kInf;
  if (!(current < kInf)) return kInf;
  return current / best;
}

}  // namespace

bool is_add_only_equilibrium(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  for (int u = 0; u < game.node_count(); ++u)
    if (engine.has_improving_addition(u)) return false;
  return true;
}

bool is_greedy_equilibrium(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  for (int u = 0; u < game.node_count(); ++u)
    if (engine.has_improving_single_move(u)) return false;
  return true;
}

bool is_swap_equilibrium(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  for (int u = 0; u < game.node_count(); ++u)
    if (engine.has_improving_swap(u)) return false;
  return true;
}

bool is_nash_equilibrium(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  return is_nash_equilibrium(engine);
}

bool is_nash_equilibrium(DeviationEngine& engine) {
  for (int u = 0; u < engine.game().node_count(); ++u)
    if (has_improving_deviation(engine, u)) return false;
  return true;
}

double nash_approx_factor(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  double beta = 1.0;
  for (int u = 0; u < game.node_count(); ++u) {
    const double current = engine.agent_cost(u);
    const auto br = exact_best_response(engine, u);
    beta = std::max(beta, cost_ratio(current, br.cost));
  }
  return beta;
}

double greedy_approx_factor(const Game& game, const StrategyProfile& s) {
  DeviationEngine engine(game, s);
  double beta = 1.0;
  for (int u = 0; u < game.node_count(); ++u) {
    const auto move = engine.best_single_move(u);
    beta = std::max(beta, cost_ratio(move.current_cost, move.cost));
  }
  return beta;
}

AgentEquilibriumReport agent_equilibrium_report(const Game& game,
                                                const StrategyProfile& s,
                                                int u) {
  DeviationEngine engine(game, s);
  AgentEquilibriumReport report;
  report.current_cost = engine.agent_cost(u);
  const auto br = exact_best_response(engine, u);
  report.best_response_cost = br.cost;
  report.best_response_improves = improves(br.cost, report.current_cost);
  const auto move = engine.best_single_move(u);
  report.best_single_move_cost = move.cost;
  report.single_move_improves = move.improved;
  return report;
}

}  // namespace gncg
