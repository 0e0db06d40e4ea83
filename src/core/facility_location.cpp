#include "core/facility_location.hpp"

#include <algorithm>

#include "core/best_response.hpp"
#include "graph/dijkstra.hpp"
#include "support/assert.hpp"

namespace gncg {

double umfl_cost(const UmflInstance& instance, const std::vector<char>& open) {
  GNCG_CHECK(open.size() == instance.facility_count(),
             "open vector size mismatch");
  double total = 0.0;
  for (std::size_t f = 0; f < open.size(); ++f) {
    if (!open[f]) continue;
    if (!(instance.open_cost[f] < kInf)) return kInf;  // forbidden facility
    total += instance.open_cost[f];
  }
  const std::size_t clients = instance.client_count();
  for (std::size_t c = 0; c < clients; ++c) {
    double best = kInf;
    for (std::size_t f = 0; f < open.size(); ++f)
      if (open[f]) best = std::min(best, instance.service[f][c]);
    if (!(best < kInf)) return kInf;  // client unserved
    total += best;
  }
  return total;
}

UmflSolution umfl_exact(const UmflInstance& instance) {
  const std::size_t facilities = instance.facility_count();
  GNCG_CHECK(facilities <= 24, "umfl_exact: too many facilities ("
                                   << facilities << ") for enumeration");
  UmflSolution best;
  best.open.assign(facilities, 0);
  std::vector<char> open(facilities, 0);
  const std::uint64_t limit = std::uint64_t{1} << facilities;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    bool forced_ok = true;
    for (std::size_t f = 0; f < facilities; ++f) {
      open[f] = static_cast<char>((mask >> f) & 1U);
      if (instance.forced_open.size() == facilities &&
          instance.forced_open[f] && !open[f])
        forced_ok = false;
    }
    if (!forced_ok) continue;
    const double cost = umfl_cost(instance, open);
    if (cost < best.cost) {
      best.cost = cost;
      best.open = open;
    }
  }
  return best;
}

namespace {

constexpr double kLocalSearchEps = 1e-9;

bool strictly_better(double candidate, double incumbent) {
  if (!(incumbent < kInf)) return candidate < kInf;
  return candidate <
         incumbent - kLocalSearchEps * std::max(1.0, std::abs(incumbent));
}

bool may_close(const UmflInstance& instance, std::size_t f) {
  return instance.forced_open.size() != instance.facility_count() ||
         !instance.forced_open[f];
}

bool may_open(const UmflInstance& instance, std::size_t f) {
  return instance.open_cost[f] < kInf;
}

}  // namespace

UmflSolution umfl_local_search(const UmflInstance& instance,
                               std::vector<char> start,
                               std::uint64_t max_iterations) {
  const std::size_t facilities = instance.facility_count();
  GNCG_CHECK(start.size() == facilities, "start size mismatch");
  UmflSolution current;
  current.open = std::move(start);
  current.cost = umfl_cost(instance, current.open);

  for (std::uint64_t iter = 0; iter < max_iterations; ++iter) {
    UmflSolution best_neighbor = current;
    bool found = false;
    auto consider = [&](std::vector<char>& open) {
      const double cost = umfl_cost(instance, open);
      if (strictly_better(cost, best_neighbor.cost)) {
        best_neighbor.cost = cost;
        best_neighbor.open = open;
        found = true;
      }
    };

    std::vector<char> candidate = current.open;
    for (std::size_t f = 0; f < facilities; ++f) {
      if (!current.open[f] && may_open(instance, f)) {
        candidate[f] = 1;  // open f
        consider(candidate);
        candidate[f] = 0;
      } else if (current.open[f] && may_close(instance, f)) {
        candidate[f] = 0;  // close f
        consider(candidate);
        // swap f -> g
        for (std::size_t g = 0; g < facilities; ++g) {
          if (g == f || current.open[g] || !may_open(instance, g)) continue;
          candidate[g] = 1;
          consider(candidate);
          candidate[g] = 0;
        }
        candidate[f] = 1;
      }
    }
    if (!found) break;
    current = std::move(best_neighbor);
  }
  return current;
}

UmflSolution umfl_local_search(const UmflInstance& instance,
                               std::uint64_t max_iterations) {
  std::vector<char> start(instance.facility_count(), 0);
  for (std::size_t f = 0; f < start.size(); ++f)
    start[f] = static_cast<char>(may_open(instance, f) ? 1 : 0);
  return umfl_local_search(instance, std::move(start), max_iterations);
}

BestResponseUmfl umfl_from_best_response(const Game& game,
                                         const StrategyProfile& s, int u) {
  const int n = game.node_count();
  GNCG_CHECK(u >= 0 && u < n, "agent out of range");
  BestResponseUmfl reduction;
  reduction.owners_towards_agent = NodeSet(n);
  for (int v = 0; v < n; ++v) {
    if (v == u) continue;
    reduction.facility_node.push_back(v);
    if (s.buys(v, u)) reduction.owners_towards_agent.insert(v);
  }

  // Distances in G' = the built network minus u's own edges (u's
  // environment), with one Dijkstra per facility node.
  const AgentEnvironment env(game, s, u);

  const std::size_t count = reduction.facility_node.size();
  auto& instance = reduction.instance;
  instance.open_cost.resize(count);
  instance.forced_open.assign(count, 0);
  instance.service.assign(count, std::vector<double>(count, kInf));

  std::vector<double> dist;
  for (std::size_t fi = 0; fi < count; ++fi) {
    const int f = reduction.facility_node[fi];
    const double w_uf = game.weight(u, f);
    if (reduction.owners_towards_agent.contains(f)) {
      instance.open_cost[fi] = 0.0;
      instance.forced_open[fi] = 1;
    } else {
      instance.open_cost[fi] = w_uf < kInf ? game.alpha() * w_uf : kInf;
    }
    dijkstra_over(
        n, f,
        [&](int x, auto&& visit) { env.for_neighbors(x, visit); }, dist);
    for (std::size_t ci = 0; ci < count; ++ci) {
      const int c = reduction.facility_node[ci];
      const double through = dist[static_cast<std::size_t>(c)];
      instance.service[fi][ci] =
          (w_uf < kInf && through < kInf) ? w_uf + through : kInf;
    }
  }
  return reduction;
}

NodeSet umfl_solution_to_strategy(const BestResponseUmfl& reduction,
                                  const UmflSolution& solution, int n) {
  NodeSet strategy(n);
  for (std::size_t f = 0; f < solution.open.size(); ++f) {
    if (!solution.open[f]) continue;
    const int node = reduction.facility_node[f];
    if (!reduction.owners_towards_agent.contains(node)) strategy.insert(node);
  }
  return strategy;
}

std::vector<char> strategy_to_umfl_open(const BestResponseUmfl& reduction,
                                        const NodeSet& strategy) {
  std::vector<char> open(reduction.facility_node.size(), 0);
  for (std::size_t f = 0; f < open.size(); ++f) {
    const int node = reduction.facility_node[f];
    if (strategy.contains(node) ||
        reduction.owners_towards_agent.contains(node))
      open[f] = 1;
  }
  return open;
}

NodeSet approx_best_response_umfl(const Game& game, const StrategyProfile& s,
                                  int u) {
  const auto reduction = umfl_from_best_response(game, s, u);
  // Start from the facility set corresponding to u's current strategy.
  std::vector<char> start = strategy_to_umfl_open(reduction, s.strategy(u));
  UmflSolution seed;
  seed.open = start;
  seed.cost = umfl_cost(reduction.instance, start);
  if (!(seed.cost < kInf)) {
    // Current strategy is infeasible (u disconnected); restart from the
    // all-open solution instead.
    return umfl_solution_to_strategy(
        reduction, umfl_local_search(reduction.instance), game.node_count());
  }
  const auto local = umfl_local_search(reduction.instance, std::move(start));
  return umfl_solution_to_strategy(reduction, local, game.node_count());
}

}  // namespace gncg
