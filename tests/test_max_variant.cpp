// Tests for the MAX (egalitarian) variant: cost semantics, the pruned
// exact best response against brute force, and cross-objective relations.
#include <gtest/gtest.h>

#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "metric/host_graph.hpp"
#include "reference/naive_search.hpp"
#include "support/rng.hpp"
#include "variants/max_game.hpp"

namespace gncg {
namespace {

Game triangle_game(double alpha) {
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 2.0);
  weights.set_symmetric(0, 2, 2.5);
  return Game(HostGraph::from_weights(std::move(weights)), alpha);
}

/// Unpruned reference best response under the egalitarian objective.
BestResponseResult brute_force_max_br(const Game& game,
                                      const StrategyProfile& s, int u) {
  std::vector<int> candidates;
  for (int v = 0; v < game.node_count(); ++v)
    if (game.can_buy(u, v)) candidates.push_back(v);
  BestResponseResult best;
  best.strategy = NodeSet(game.node_count());
  best.cost = kInf;
  for (std::uint64_t mask = 0;
       mask < (std::uint64_t{1} << candidates.size()); ++mask) {
    StrategyProfile changed = s;
    NodeSet strategy(game.node_count());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if ((mask >> i) & 1U) strategy.insert(candidates[i]);
    changed.set_strategy(u, strategy);
    const double cost = max_agent_cost(game, changed, u);
    ++best.evaluations;
    if (cost < best.cost) {
      best.cost = cost;
      best.strategy = strategy;
    }
  }
  return best;
}

TEST(MaxVariant, AgentCostOnTriangle) {
  const Game game = triangle_game(2.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 2);
  // Agent 0: edge cost 2*1, eccentricity max(1, 3) = 3.
  EXPECT_DOUBLE_EQ(max_agent_cost(game, profile, 0), 2.0 + 3.0);
  // Agent 1: edge cost 2*2, eccentricity max(1, 2) = 2.
  EXPECT_DOUBLE_EQ(max_agent_cost(game, profile, 1), 4.0 + 2.0);
  // Agent 2: no edges, eccentricity 3.
  EXPECT_DOUBLE_EQ(max_agent_cost(game, profile, 2), 3.0);
}

TEST(MaxVariant, DisconnectionIsInfinite) {
  const Game game = triangle_game(1.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  EXPECT_EQ(max_agent_cost(game, profile, 2), kInf);
  EXPECT_EQ(max_social_cost(game, profile), kInf);
}

TEST(MaxVariant, MaxCostNeverExceedsSumCost) {
  Rng rng(1501);
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_metric_host(5, rng), rng.uniform_real(0.3, 3.0));
    const auto profile = random_profile(game, rng);
    for (int u = 0; u < 5; ++u)
      EXPECT_LE(max_agent_cost(game, profile, u),
                agent_cost(game, profile, u) + 1e-9);
  }
}

TEST(MaxVariant, ExactBestResponseMatchesBruteForce) {
  Rng rng(1511);
  for (int trial = 0; trial < 12; ++trial) {
    const Game game(trial % 2 == 0
                        ? random_metric_host(5, rng)
                        : random_one_two_host(5, 0.5, rng),
                    rng.uniform_real(0.3, 3.0));
    const auto profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(5));
    const auto exact = max_exact_best_response(game, profile, u);
    const auto brute = brute_force_max_br(game, profile, u);
    EXPECT_NEAR(exact.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost))
        << "trial " << trial;
    EXPECT_LE(exact.evaluations, brute.evaluations);
  }
}

TEST(MaxVariant, NashCheckConsistentWithBruteForce) {
  Rng rng(1523);
  int equilibria = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_one_two_host(4, 0.6, rng),
                    rng.uniform_real(0.5, 4.0));
    const auto profile = random_profile(game, rng);
    bool brute_nash = true;
    for (int u = 0; u < 4 && brute_nash; ++u) {
      const double current = max_agent_cost(game, profile, u);
      if (improves(brute_force_max_br(game, profile, u).cost, current))
        brute_nash = false;
    }
    EXPECT_EQ(max_is_nash_equilibrium(game, profile), brute_nash);
    equilibria += brute_nash ? 1 : 0;
  }
  (void)equilibria;  // informational; random profiles are rarely stable
}

TEST(MaxVariant, StarCenterEgalitarianCost) {
  // On a unit host the star gives every node eccentricity <= 2 and the
  // center exactly 1; hand-check the numbers.
  const Game game(HostGraph::unit(5), 2.0);
  const auto star = star_profile(game, 0);
  EXPECT_DOUBLE_EQ(max_agent_cost(game, star, 0), 2.0 * 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(max_agent_cost(game, star, 3), 2.0);
  EXPECT_DOUBLE_EQ(max_network_social_cost(
                       game, built_graph(game, star).edges()),
                   2.0 * 4.0 + 1.0 + 4 * 2.0);
}

TEST(MaxVariant, SumEquilibriaNeedNotBeMaxEquilibria) {
  // The two objectives genuinely differ: find some converged SUM NE that
  // fails the MAX check (or vice versa) across a small sample.  Both being
  // always equal would signal a wiring bug.
  Rng rng(1531);
  int differing = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Game game(random_metric_host(5, rng), rng.uniform_real(0.3, 2.0));
    DynamicsOptions options;
    options.max_moves = 3000;
    options.seed = rng();
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    if (!run.converged) continue;
    if (!max_is_nash_equilibrium(game, run.final_profile)) ++differing;
  }
  EXPECT_GT(differing, 0)
      << "every SUM equilibrium was also a MAX equilibrium -- suspicious";
}

TEST(MaxVariant, SharedDriverMatchesNaiveSearch) {
  // The MAX best response now runs the shared incremental br_search driver;
  // the pre-refactor per-subset-Dijkstra search is the differential
  // baseline (full and certification modes, profile and engine paths).
  Rng rng(1733);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 5 + (trial % 4);
    const Game game(trial % 2 == 0 ? random_metric_host(n, rng)
                                   : random_one_two_host(n, 0.5, rng),
                    rng.uniform_real(0.2, 3.0));
    const auto profile = random_profile(game, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_max_exact_best_response(game, profile, u);
      const auto fast = max_exact_best_response(game, profile, u);
      EXPECT_TRUE(fast.strategy == naive.strategy)
          << "trial " << trial << " agent " << u;
      // Canonical-cost contract: the driver's cost equals the egalitarian
      // re-evaluation of the winning strategy bitwise (the naive search's
      // raw cost carries DFS-accumulator noise; see br_search.hpp).
      StrategyProfile rewired = profile;
      rewired.set_strategy(u, naive.strategy);
      EXPECT_EQ(fast.cost, max_agent_cost(game, rewired, u))
          << "trial " << trial << " agent " << u;
      const auto via_engine = max_exact_best_response(engine, u);
      EXPECT_EQ(via_engine.cost, fast.cost);
      EXPECT_TRUE(via_engine.strategy == naive.strategy);

      NaiveBrOptions options;
      options.incumbent = max_agent_cost(game, profile, u);
      options.first_improvement = true;
      const auto naive_cert =
          naive_max_exact_best_response(game, profile, u, options);
      EXPECT_EQ(max_has_improving_deviation(engine, u), naive_cert.improved);
    }
  }
}

TEST(MaxVariant, EngineAgentCostMatchesProfileBuild) {
  Rng rng(1741);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 5 + (trial % 4);
    const Game game(random_metric_host(n, rng), rng.uniform_real(0.3, 3.0));
    const auto profile = random_profile(game, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u)
      EXPECT_EQ(max_agent_cost(engine, u), max_agent_cost(game, profile, u));
  }
}

}  // namespace
}  // namespace gncg
