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

double AgentEnvironment::distance_cost_of(const NodeSet& targets) const {
  const int n = game_->node_count();
  return distance_sum_over(n, agent_, [&](int x, auto&& visit) {
    for_neighbors(x, visit);
    if (x == agent_) {
      targets.for_each([&](int v) { visit(v, game_->weight(agent_, v)); });
    } else if (targets.contains(x)) {
      visit(agent_, game_->weight(agent_, x));
    }
  });
}

double AgentEnvironment::cost_of(const NodeSet& targets) const {
  double edge_weight = 0.0;
  targets.for_each([&](int v) { edge_weight += game_->weight(agent_, v); });
  return game_->alpha() * edge_weight + distance_cost_of(targets);
}

namespace {

/// DFS state of the pre-refactor exact search (one fresh Dijkstra per
/// visited subset, sequential, global host-sum floor): kept verbatim as the
/// differential-testing and benchmarking baseline for the incremental
/// br_search engine.
struct NaiveBrSearch {
  const Game* game = nullptr;
  const AgentEnvironment* env = nullptr;
  int agent = 0;
  std::vector<int> candidates;       // targets sorted by ascending weight
  std::vector<double> weights;       // parallel edge weights
  double dist_lower_bound = 0.0;     // sum_v d_H(agent, v)
  double incumbent = kInf;           // original bound (improved = beat this)
  bool first_improvement = false;
  bool done = false;

  NodeSet current;
  double current_weight = 0.0;

  BestResponseResult result;

  void run() {
    evaluate();
    if (!done) descend(0);
  }

  void evaluate() {
    const double cost =
        game->alpha() * current_weight + env->distance_cost_of(current);
    ++result.evaluations;
    if (improves(cost, bound())) {
      result.cost = cost;
      result.strategy = current;
      result.improved = improves(cost, incumbent);
      if (first_improvement && result.improved) done = true;
    }
  }

  double bound() const { return std::min(result.cost, incumbent); }

  void descend(std::size_t start) {
    for (std::size_t i = start; i < candidates.size() && !done; ++i) {
      // Admissible lower bound for any superset containing candidate i:
      // its edge cost alone plus the host-closure distance floor.  The
      // candidate list is weight-sorted, so the first failure cuts the rest.
      const double lb = game->alpha() * (current_weight + weights[i]) +
                        dist_lower_bound;
      if (!improves(lb, bound())) break;
      current.insert(candidates[i]);
      current_weight += weights[i];
      evaluate();
      if (!done) descend(i + 1);
      current.erase(candidates[i]);
      current_weight -= weights[i];
    }
  }
};

}  // namespace

BestResponseResult naive_exact_best_response(const Game& game,
                                             const StrategyProfile& s, int u,
                                             const BestResponseOptions& options) {
  const AgentEnvironment env(game, s, u);
  NaiveBrSearch search;
  search.game = &game;
  search.env = &env;
  search.agent = u;
  search.incumbent = options.incumbent;
  search.first_improvement = options.first_improvement;
  // Admissible pruning floor (the closure row sum: stored closure on dense
  // hosts, one O(n) row per call on implicit ones; see the host-backend
  // query contract in metric/host_backend.hpp).
  search.dist_lower_bound = game.host_distance_sum(u);
  search.current = NodeSet(game.node_count());
  search.result.strategy = NodeSet(game.node_count());

  // Candidate targets: every node u may buy towards, sorted by edge weight
  // so the branch-and-bound cut is monotone.
  std::vector<std::pair<double, int>> order;
  for (int v = 0; v < game.node_count(); ++v)
    if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
  std::sort(order.begin(), order.end());
  for (const auto& [w, v] : order) {
    search.candidates.push_back(v);
    search.weights.push_back(w);
  }

  search.run();

  // A full search (infinite incumbent) always reports the argmin, even when
  // every strategy costs kInf (hosts that cannot connect u at all).
  if (!(search.result.cost < kInf) && !(options.incumbent < kInf)) {
    search.result.cost = env.cost_of(search.result.strategy);
  }
  return search.result;
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

namespace {

/// Which single-move families a scan considers.
struct MoveScanFlags {
  bool adds = false;
  bool deletes = false;
  bool swaps = false;
};

/// Shared implementation of the single-move scans.
SingleMoveResult scan_single_moves(const Game& game, const StrategyProfile& s,
                                   int u, const MoveScanFlags& flags) {
  const AgentEnvironment env(game, s, u);
  const int n = game.node_count();

  NodeSet current(n);
  s.strategy(u).for_each([&](int v) { current.insert(v); });

  SingleMoveResult result;
  result.current_cost = env.cost_of(current);
  result.cost = result.current_cost;

  auto consider = [&](const SingleMove& move, const NodeSet& candidate) {
    const double cost = env.cost_of(candidate);
    if (improves(cost, result.cost)) {
      result.cost = cost;
      result.move = move;
      result.improved = true;
    }
  };

  NodeSet working = current;
  if (flags.adds) {
    // Additions: buy towards a node with no incident built edge to u yet
    // (buying an edge that already exists is never strictly improving).
    for (int v = 0; v < n; ++v) {
      if (v == u || !game.can_buy(u, v) || s.has_edge(u, v)) continue;
      working.insert(v);
      consider({MoveType::kAdd, -1, v}, working);
      working.erase(v);
    }
  }

  if (flags.deletes || flags.swaps) {
    const auto owned = s.strategy(u).to_vector();
    for (int v : owned) {
      working.erase(v);
      if (flags.deletes) consider({MoveType::kDelete, v, -1}, working);
      if (flags.swaps) {
        // Swaps (u, v) -> (u, x).  Swapping to an already-present edge is
        // dominated by the plain deletion, so such x are skipped when
        // deletions are in the move set; for swap-only scans they must be
        // considered (they are the only way to shed a redundant edge).
        for (int x = 0; x < n; ++x) {
          if (x == u || x == v || !game.can_buy(u, x)) continue;
          if (flags.deletes && s.has_edge(u, x)) continue;
          if (!flags.deletes && s.strategy(u).contains(x)) continue;
          working.insert(x);
          consider({MoveType::kSwap, v, x}, working);
          working.erase(x);
        }
      }
      working.insert(v);
    }
  }
  return result;
}

}  // namespace

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

SingleMoveResult naive_best_single_move(const Game& game,
                                        const StrategyProfile& s, int u) {
  return scan_single_moves(game, s, u, {true, true, true});
}

SingleMoveResult naive_best_addition(const Game& game,
                                     const StrategyProfile& s, int u) {
  return scan_single_moves(game, s, u, {true, false, false});
}

SingleMoveResult naive_best_swap(const Game& game, const StrategyProfile& s,
                                 int u) {
  return scan_single_moves(game, s, u, {false, false, true});
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
