// Unit tests for the game model: strategy profiles, built networks and cost
// evaluation against hand-computed values.
#include <gtest/gtest.h>

#include "core/cost.hpp"
#include "core/game.hpp"
#include "graph/graph_algos.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Triangle host with weights w(0,1)=1, w(1,2)=2, w(0,2)=2.5 (metric).
Game triangle_game(double alpha) {
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 2.0);
  weights.set_symmetric(0, 2, 2.5);
  return Game(HostGraph::from_weights(std::move(weights)), alpha);
}

TEST(GameTest, RejectsNonPositiveAlpha) {
  DistanceMatrix weights(2, 1.0);
  auto host = HostGraph::from_weights(std::move(weights));
  EXPECT_THROW(Game(std::move(host), 0.0), ContractViolation);
}

TEST(GameTest, HostClosureShortcutsLongEdges) {
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 1.0);
  weights.set_symmetric(0, 2, 10.0);  // non-metric
  const Game game(HostGraph::from_weights(std::move(weights)), 1.0);
  EXPECT_DOUBLE_EQ(game.host_distance(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(game.host_distance_sum(0), 0.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(game.weight(0, 2), 10.0);  // raw weight preserved
}

TEST(StrategyProfileTest, BuyAndEdgeSemantics) {
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  EXPECT_TRUE(profile.buys(0, 1));
  EXPECT_FALSE(profile.buys(1, 0));
  EXPECT_TRUE(profile.has_edge(0, 1));
  EXPECT_TRUE(profile.has_edge(1, 0));
  EXPECT_EQ(profile.bought_count(0), 1);
  EXPECT_EQ(profile.built_edge_count(), 1);
  profile.add_buy(1, 0);  // double ownership representable
  EXPECT_EQ(profile.built_edge_count(), 1);
  profile.remove_buy(0, 1);
  EXPECT_TRUE(profile.has_edge(0, 1));  // the other owner remains
}

TEST(StrategyProfileTest, BuiltEdgeCountMatchesPairwiseDefinition) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + trial;
    StrategyProfile profile(n);
    for (int j = 0; j < 3 * n; ++j) {
      const int a = static_cast<int>(rng.uniform_below(
          static_cast<std::uint64_t>(n)));
      const int b = static_cast<int>(rng.uniform_below(
          static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      profile.add_buy(a, b);
      if (rng.bernoulli(0.3)) profile.add_buy(b, a);  // double ownership
    }
    int pairwise = 0;
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (profile.has_edge(u, v)) ++pairwise;
    EXPECT_EQ(profile.built_edge_count(), pairwise) << "trial " << trial;
  }
}

TEST(StrategyProfileTest, SetStrategyValidates) {
  StrategyProfile profile(3);
  NodeSet self(3);
  self.insert(1);
  EXPECT_THROW(profile.set_strategy(1, self), ContractViolation);
  NodeSet wrong_universe(4);
  EXPECT_THROW(profile.set_strategy(0, wrong_universe), ContractViolation);
}

TEST(StrategyProfileTest, HashDistinguishesOwnership) {
  StrategyProfile a(3), b(3);
  a.add_buy(0, 1);
  b.add_buy(1, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());  // overwhelmingly likely
}

TEST(BuiltGraphTest, CollapsesDoubleOwnership) {
  const Game game = triangle_game(1.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 0);
  profile.add_buy(1, 2);
  const auto g = built_graph(game, profile);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  const auto adjacency = build_adjacency(game, profile);
  EXPECT_EQ(adjacency[0].size(), 1u);  // single entry despite double buy
}

TEST(CostTest, AgentCostOnTriangle) {
  const Game game = triangle_game(2.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 2);
  // Agent 0: buys (0,1) of weight 1 -> edge cost 2; distances 0,1,3.
  EXPECT_DOUBLE_EQ(agent_cost(game, profile, 0), 2.0 + 4.0);
  // Agent 1: buys (1,2) of weight 2 -> edge cost 4; distances 1,0,2.
  EXPECT_DOUBLE_EQ(agent_cost(game, profile, 1), 4.0 + 3.0);
  // Agent 2: buys nothing; distances 3,2,0.
  EXPECT_DOUBLE_EQ(agent_cost(game, profile, 2), 5.0);
}

TEST(CostTest, SocialCostIsAgentSum) {
  const Game game = triangle_game(2.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 2);
  double total = 0.0;
  for (int u = 0; u < 3; ++u) total += agent_cost(game, profile, u);
  EXPECT_DOUBLE_EQ(social_cost(game, profile), total);
  const auto split = social_cost_breakdown(game, profile);
  EXPECT_DOUBLE_EQ(split.edge_cost, 2.0 * (1.0 + 2.0));
  EXPECT_DOUBLE_EQ(split.dist_cost, total - split.edge_cost);
}

TEST(CostTest, DisconnectionIsInfinite) {
  const Game game = triangle_game(1.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  EXPECT_EQ(agent_cost(game, profile, 2), kInf);
  EXPECT_EQ(social_cost(game, profile), kInf);
}

TEST(CostTest, DoubleOwnershipPaysTwice) {
  const Game game = triangle_game(1.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 0);
  profile.add_buy(1, 2);
  const auto split = social_cost_breakdown(game, profile);
  EXPECT_DOUBLE_EQ(split.edge_cost, 1.0 + 1.0 + 2.0);  // (0,1) paid twice
}

TEST(CostTest, NetworkCostCountsEdgesOnce) {
  const Game game = triangle_game(2.0);
  const std::vector<Edge> network{{0, 1, 1.0}, {1, 2, 2.0}};
  const auto split = network_social_cost_breakdown(game, network);
  EXPECT_DOUBLE_EQ(split.edge_cost, 2.0 * 3.0);
  // Ordered distances: (0,1)=1,(0,2)=3,(1,2)=2 each twice.
  EXPECT_DOUBLE_EQ(split.dist_cost, 2.0 * (1.0 + 3.0 + 2.0));
}

TEST(CostTest, NetworkCostMatchesProfileCostForSingleOwners) {
  const Game game = triangle_game(1.5);
  const std::vector<Edge> network{{0, 1, 1.0}, {0, 2, 2.5}};
  const auto profile = profile_from_edges(game, network);
  EXPECT_DOUBLE_EQ(network_social_cost(game, network),
                   social_cost(game, profile));
}

TEST(CostTest, ImprovesUsesRelativeEpsilon) {
  EXPECT_TRUE(improves(1.0, 2.0));
  EXPECT_FALSE(improves(2.0, 2.0));
  EXPECT_FALSE(improves(2.0 - 1e-12, 2.0));  // inside the epsilon band
  EXPECT_TRUE(improves(5.0, kInf));
  EXPECT_FALSE(improves(kInf, kInf));
  EXPECT_FALSE(improves(1e12, 1e12 - 1.0e-3 * 0.0));  // equal large values
}

TEST(ProfileFactories, StarAndEdgeProfiles) {
  const Game game = triangle_game(1.0);
  const auto star = star_profile(game, 1);
  EXPECT_TRUE(star.buys(1, 0));
  EXPECT_TRUE(star.buys(1, 2));
  EXPECT_EQ(star.bought_count(1), 2);
  const auto from_edges = profile_from_edges(game, {{0, 2, 2.5}});
  EXPECT_TRUE(from_edges.buys(0, 2));
  EXPECT_TRUE(is_tree(built_graph(game, star)));
}

}  // namespace
}  // namespace gncg
