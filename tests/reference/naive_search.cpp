#include "reference/naive_search.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace gncg {

namespace {

// --- exact searches -------------------------------------------------------
//
// A distance term is the one thing the SUM and MAX searches differ in: the
// term of a candidate subset, and its admissible floor (any built network's
// distances are bounded below by the host's shortest-path closure).

struct SumTerm {
  static double of(const AgentEnvironment& env, const NodeSet& targets) {
    return env.distance_cost_of(targets);
  }
  static double floor(const Game& game, int u) {
    return game.host_distance_sum(u);
  }
};

struct MaxTerm {
  static double of(const AgentEnvironment& env, const NodeSet& targets) {
    return env.eccentricity_of(targets);
  }
  static double floor(const Game& game, int u) {
    double ecc = 0.0;
    for (int v = 0; v < game.node_count(); ++v)
      ecc = std::max(ecc, game.host_distance(u, v));
    return ecc;
  }
};

/// Pruned DFS over weight-sorted purchase targets, one fresh Dijkstra per
/// visited subset.
template <class Term>
struct NaiveBrSearch {
  const Game& game;
  const AgentEnvironment& env;
  NaiveBrOptions options;
  std::vector<int> candidates;  // targets sorted by ascending weight
  std::vector<double> weights;  // parallel edge weights
  double dist_floor;
  bool done = false;

  NodeSet current;
  double current_weight = 0.0;
  BestResponseResult result;

  NaiveBrSearch(const Game& g, const AgentEnvironment& e,
                const NaiveBrOptions& o)
      : game(g),
        env(e),
        options(o),
        dist_floor(Term::floor(g, e.agent())),
        current(g.node_count()) {
    const int u = e.agent();
    result.strategy = NodeSet(g.node_count());
    std::vector<std::pair<double, int>> order;
    for (int v = 0; v < g.node_count(); ++v)
      if (g.can_buy(u, v)) order.emplace_back(g.weight(u, v), v);
    std::sort(order.begin(), order.end());
    for (const auto& [w, v] : order) {
      candidates.push_back(v);
      weights.push_back(w);
    }
  }

  double bound() const { return std::min(result.cost, options.incumbent); }

  void evaluate() {
    const double cost =
        game.alpha() * current_weight + Term::of(env, current);
    ++result.evaluations;
    if (improves(cost, bound())) {
      result.cost = cost;
      result.strategy = current;
      result.improved = improves(cost, options.incumbent);
      if (options.first_improvement && result.improved) done = true;
    }
  }

  void descend(std::size_t start) {
    for (std::size_t i = start; i < candidates.size() && !done; ++i) {
      // Admissible lower bound for any superset containing candidate i: its
      // edge cost alone plus the distance floor.  The candidate list is
      // weight-sorted, so the first failure cuts the rest.
      const double lb =
          game.alpha() * (current_weight + weights[i]) + dist_floor;
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

// A search whose every subset costs kInf leaves the empty strategy at cost
// kInf, which is that strategy's cost: no re-costing pass is needed.
template <class Term>
BestResponseResult naive_search(const Game& game, const StrategyProfile& s,
                                int u, const NaiveBrOptions& options) {
  const AgentEnvironment env(game, s, u);
  NaiveBrSearch<Term> search(game, env, options);
  search.evaluate();
  if (!search.done) search.descend(0);
  return search.result;
}

// --- single-move scans ----------------------------------------------------

/// Which single-move families a scan considers.
struct MoveScanFlags {
  bool adds = false;
  bool deletes = false;
  bool swaps = false;
};

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

BestResponseResult naive_exact_best_response(const Game& game,
                                             const StrategyProfile& s, int u,
                                             const NaiveBrOptions& options) {
  return naive_search<SumTerm>(game, s, u, options);
}

BestResponseResult naive_max_exact_best_response(
    const Game& game, const StrategyProfile& s, int u,
    const NaiveBrOptions& options) {
  return naive_search<MaxTerm>(game, s, u, options);
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

}  // namespace gncg
