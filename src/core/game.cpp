#include "core/game.hpp"

namespace gncg {

Game::Game(HostGraph host, double alpha)
    : host_(std::move(host)), alpha_(alpha) {
  GNCG_CHECK(alpha > 0.0, "alpha must be positive, got " << alpha);
}

StrategyProfile::StrategyProfile(int n) {
  GNCG_CHECK(n >= 1, "profile needs at least one agent");
  strategies_.reserve(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) strategies_.emplace_back(n);
}

void StrategyProfile::add_buy(int u, int v) {
  GNCG_CHECK(u != v, "agents cannot buy self-loops");
  strategies_[idx(u)].insert(v);
}

void StrategyProfile::remove_buy(int u, int v) {
  strategies_[idx(u)].erase(v);
}

void StrategyProfile::set_strategy(int u, NodeSet strategy) {
  GNCG_CHECK(strategy.universe() == node_count(),
             "strategy universe mismatch");
  GNCG_CHECK(!strategy.contains(u), "strategy may not contain the agent itself");
  strategies_[idx(u)] = std::move(strategy);
}

int StrategyProfile::built_edge_count() const {
  // Every built edge is a purchase; an edge both endpoints buy is counted
  // at its smaller endpoint only.  O(purchases), not O(n^2) pair checks.
  int count = 0;
  for (int u = 0; u < node_count(); ++u)
    strategy(u).for_each([&](int v) {
      if (u < v || !buys(v, u)) ++count;
    });
  return count;
}

std::uint64_t StrategyProfile::hash() const {
  std::uint64_t h = 0x51ed270b35ae1f29ULL;
  for (const auto& s : strategies_) {
    const std::uint64_t sh = s.hash();
    h ^= sh + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::vector<std::vector<Neighbor>> build_adjacency(const Game& game,
                                                   const StrategyProfile& s) {
  const int n = game.node_count();
  GNCG_CHECK(s.node_count() == n, "profile/game size mismatch");
  std::vector<std::vector<Neighbor>> adjacency(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    s.strategy(u).for_each([&](int v) {
      const double w = game.weight(u, v);
      GNCG_CHECK(w < kInf, "profile buys a forbidden (infinite-weight) edge");
      // Collapse double ownership into a single undirected adjacency entry.
      if (!(v < u && s.buys(v, u))) {
        adjacency[static_cast<std::size_t>(u)].push_back({v, w});
        adjacency[static_cast<std::size_t>(v)].push_back({u, w});
        return;
      }
    });
  }
  return adjacency;
}

WeightedGraph built_graph(const Game& game, const StrategyProfile& s) {
  const int n = game.node_count();
  WeightedGraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (s.has_edge(u, v)) g.add_edge(u, v, game.weight(u, v));
  return g;
}

StrategyProfile profile_from_edges(const Game& game,
                                   const std::vector<Edge>& edges) {
  StrategyProfile profile(game.node_count());
  for (const auto& e : edges) {
    GNCG_CHECK(game.can_buy(e.u, e.v), "edge not purchasable in host");
    profile.add_buy(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  return profile;
}

StrategyProfile star_profile(const Game& game, int center) {
  StrategyProfile profile(game.node_count());
  for (int v = 0; v < game.node_count(); ++v) {
    if (v == center) continue;
    GNCG_CHECK(game.can_buy(center, v), "star edge not purchasable");
    profile.add_buy(center, v);
  }
  return profile;
}

}  // namespace gncg
