// Tests for the spatial candidate oracle and the approximate-BR ladder:
// oracle determinism and full-budget identity with the dense enumeration,
// grid k-NN against brute force, the shortlist-restricted exact search
// against the naive baseline (bitwise at full coverage), the ladder's
// certificates (upper bound, admissible lower bound, certified exactness),
// and the euclidean backend's dial opt-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/dynamics_policy.hpp"
#include "core/profile_gen.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/spatial_index.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace gncg {
namespace {

Game random_euclidean_game(int n, double alpha, double p, Rng& rng) {
  return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), p),
              alpha);
}

/// Brute-force (weight, id)-sorted candidate enumeration -- the base
/// HostBackend::candidate_targets semantics.
std::vector<int> brute_candidates(const Game& game, int u, int budget) {
  std::vector<std::pair<double, int>> order;
  for (int v = 0; v < game.node_count(); ++v)
    if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
  std::sort(order.begin(), order.end());
  if (static_cast<int>(order.size()) > budget) order.resize(budget);
  std::vector<int> out;
  for (const auto& [w, v] : order) out.push_back(v);
  return out;
}

/// Inserts mutual (double-ownership) buys; the environment masking must keep
/// the partner's copy alive through the ladder exactly as in br_search.
void force_mutual_buys(const Game& game, StrategyProfile& profile, int pairs,
                       Rng& rng) {
  const int n = game.node_count();
  for (int j = 0; j < pairs; ++j) {
    const int a =
        static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    const int b =
        static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    if (a == b || !game.can_buy(a, b)) continue;
    profile.add_buy(a, b);
    profile.add_buy(b, a);
  }
}

// --- candidate oracle -----------------------------------------------------

TEST(CandidateOracle, FullBudgetMatchesDenseEnumerationAcrossNorms) {
  Rng rng(71);
  for (double p : {1.0, 2.0, kPNormInf}) {
    const int n = 40;
    const Game game = random_euclidean_game(n, 1.0, p, rng);
    const std::uint64_t cells_before = DistanceMatrix::allocated_cells_total();
    std::vector<int> oracle;
    for (int u = 0; u < n; ++u) {
      // budget >= n-1 must reproduce the base enumeration bit-for-bit (the
      // restricted-exact differential gates rely on this identity).
      game.host().candidate_targets(u, n - 1, oracle);
      EXPECT_EQ(oracle, brute_candidates(game, u, n - 1)) << "p=" << p;
      // And over-asking changes nothing.
      game.host().candidate_targets(u, 10 * n, oracle);
      EXPECT_EQ(oracle, brute_candidates(game, u, n - 1)) << "p=" << p;
    }
    // The oracle never materializes O(n^2) state on the euclidean path.
    EXPECT_EQ(DistanceMatrix::allocated_cells_total(), cells_before);
  }
}

TEST(CandidateOracle, SmallBudgetIsDeterministicSortedAndSized) {
  Rng rng(73);
  const int n = 120;
  const Game game = random_euclidean_game(n, 1.0, 2.0, rng);
  std::vector<int> a, b;
  for (int u = 0; u < n; u += 7) {
    for (int budget : {1, 4, 16, 40}) {
      game.host().candidate_targets(u, budget, a);
      game.host().candidate_targets(u, budget, b);
      EXPECT_EQ(a, b) << "query must be deterministic";
      EXPECT_EQ(static_cast<int>(a.size()), std::min(budget, n - 1));
      // (weight, id)-sorted, no duplicates, never u itself.
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i], u);
        if (i > 0) {
          const double prev = game.weight(u, a[i - 1]);
          const double cur = game.weight(u, a[i]);
          EXPECT_TRUE(prev < cur || (prev == cur && a[i - 1] < a[i]))
              << "u=" << u << " budget=" << budget << " i=" << i;
        }
      }
    }
  }
}

TEST(SpatialIndex, OneDimensionalQueriesAreExactKnn) {
  // Without cone coverage (dim 1) the index is a pure k-NN structure: its
  // output must equal the brute-force k nearest under (distance, id) order.
  Rng rng(79);
  const PointSet points = uniform_points(200, 1, 1000.0, rng);
  const SpatialIndex index(points, 2.0);
  SpatialIndex::QueryScratch scratch;
  std::vector<int> out;
  for (int u = 0; u < points.size(); u += 13) {
    for (int k : {1, 3, 17, 50}) {
      index.candidates(u, k, out, scratch);
      std::vector<std::pair<double, int>> brute;
      for (int v = 0; v < points.size(); ++v)
        if (v != u) brute.emplace_back(points.distance(u, v, 2.0), v);
      std::sort(brute.begin(), brute.end());
      brute.resize(static_cast<std::size_t>(k));
      std::vector<int> expect;
      for (const auto& [d, v] : brute) expect.push_back(v);
      EXPECT_EQ(out, expect) << "u=" << u << " k=" << k;
    }
  }
}

TEST(SpatialIndex, PlaneQueriesKeepNearNeighborsUnderConePriority) {
  // In the plane, cone representatives may displace up to kCones near
  // neighbors from a truncated shortlist -- but never more: the brute-force
  // (budget - kCones) nearest must always survive.
  Rng rng(83);
  const PointSet points = uniform_points(300, 2, 1000.0, rng);
  const SpatialIndex index(points, 2.0);
  SpatialIndex::QueryScratch scratch;
  std::vector<int> out;
  for (int u = 0; u < points.size(); u += 23) {
    const int budget = 24;
    index.candidates(u, budget, out, scratch);
    EXPECT_EQ(static_cast<int>(out.size()), budget);
    std::vector<std::pair<double, int>> brute;
    for (int v = 0; v < points.size(); ++v)
      if (v != u) brute.emplace_back(points.distance(u, v, 2.0), v);
    std::sort(brute.begin(), brute.end());
    for (int i = 0; i < budget - SpatialIndex::kCones; ++i) {
      EXPECT_NE(std::find(out.begin(), out.end(), brute[i].second), out.end())
          << "u=" << u << " lost nearest-neighbor rank " << i;
    }
  }
}

// --- restricted exact search (tier 2) vs naive baseline -------------------

TEST(RestrictedBrSearch, FullCoverageMatchesNaiveBitwise) {
  Rng rng(89);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 6 + (trial % 5);  // 6..10
    const double alpha = rng.uniform_real(0.2, 4.0);
    const double p = (trial % 3 == 0) ? 1.0 : (trial % 3 == 1 ? 2.0
                                                              : kPNormInf);
    const Game game = random_euclidean_game(n, alpha, p, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    std::vector<int> full;
    for (int u = 0; u < n; ++u) {
      game.host().candidate_targets(u, n - 1, full);
      BestResponseOptions restricted;
      restricted.restrict_targets = &full;
      const auto naive = naive_exact_best_response(game, profile, u);
      const auto fast = exact_best_response(game, profile, u, restricted);
      EXPECT_TRUE(fast.strategy == naive.strategy)
          << "trial " << trial << " agent " << u;
      const AgentEnvironment env(game, profile, u);
      EXPECT_EQ(fast.cost, env.cost_of(naive.strategy))
          << "trial " << trial << " agent " << u;
    }
  }
}

TEST(RestrictedBrSearch, RestrictionIsExactOverTheShortlist) {
  // A proper-subset restriction must return the minimum over subsets of the
  // shortlist: check against a brute force over the restricted space.
  Rng rng(97);
  const int n = 9;
  const Game game = random_euclidean_game(n, 0.8, 2.0, rng);
  const StrategyProfile profile = random_profile(game, rng);
  std::vector<int> shortlist;
  for (int u = 0; u < n; ++u) {
    game.host().candidate_targets(u, 4, shortlist);
    BestResponseOptions restricted;
    restricted.restrict_targets = &shortlist;
    const auto fast = exact_best_response(game, profile, u, restricted);

    const AgentEnvironment env(game, profile, u);
    double best = kInf;
    NodeSet best_set(n);
    const std::size_t k = shortlist.size();
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << k); ++mask) {
      NodeSet set(n);
      for (std::size_t i = 0; i < k; ++i)
        if ((mask >> i) & 1U) set.insert(shortlist[i]);
      const double cost = env.cost_of(set);
      if (cost < best) {
        best = cost;
        best_set = set;
      }
    }
    EXPECT_TRUE(fast.strategy == best_set) << "agent " << u;
    EXPECT_EQ(fast.cost, env.cost_of(best_set)) << "agent " << u;
  }
}

// --- the ladder -----------------------------------------------------------

TEST(ApproxLadder, CertificatesAreSoundAgainstNaiveExact) {
  Rng rng(101);
  for (int trial = 0; trial < 18; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const double p = (trial % 3 == 0) ? 1.0 : (trial % 3 == 1 ? 2.0
                                                              : kPNormInf);
    const Game game = random_euclidean_game(n, alpha, p, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_exact_best_response(game, profile, u);
      const AgentEnvironment env(game, profile, u);
      const double exact_cost = env.cost_of(naive.strategy);
      ApproxBrOptions options;
      options.budget = 4;
      const auto ladder = approx_best_response_ladder(game, profile, u,
                                                      options);
      const double scale = std::max(1.0, std::abs(exact_cost));
      // Upper bound: the ladder returns a real strategy's canonical cost.
      EXPECT_EQ(ladder.cost, env.cost_of(ladder.strategy))
          << "trial " << trial << " agent " << u;
      EXPECT_GE(ladder.cost, exact_cost - 1e-12 * scale);
      // Admissible lower bound on the unrestricted best response.
      EXPECT_LE(ladder.lower_bound, exact_cost + 1e-12 * scale)
          << "trial " << trial << " agent " << u;
      EXPECT_GE(ladder.beta, 1.0);
      // Certified exactness must be truthful.
      if (ladder.exact) {
        EXPECT_NEAR(ladder.cost, exact_cost, 1e-9 * scale)
            << "trial " << trial << " agent " << u;
      }
    }
  }
}

TEST(ApproxLadder, BoundedRepairsKeepCertificatesSound) {
  // With a tiny repair cap the tier-1 probes truncate constantly; the
  // ladder must still return a real strategy's canonical cost, an
  // admissible lower bound, and truthful exactness -- and when it does
  // claim exactness, its cost must bitwise-equal the unbounded ladder's
  // (which the cap-0 differential gates tie to the naive optimum).
  Rng rng(127);
  for (int trial = 0; trial < 18; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const double p = (trial % 3 == 0) ? 1.0 : (trial % 3 == 1 ? 2.0
                                                              : kPNormInf);
    const Game game = random_euclidean_game(n, alpha, p, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    engine.warm_distances();
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_exact_best_response(game, profile, u);
      const AgentEnvironment env(game, profile, u);
      const double exact_cost = env.cost_of(naive.strategy);
      ApproxBrOptions bounded_options;
      bounded_options.budget = 4;
      bounded_options.repair_cap = 2;  // truncates almost every probe
      bounded_options.incumbent = engine.agent_cost(u);
      bounded_options.current_dist = &engine.distances_warm(u);
      const auto bounded = approx_best_response_ladder(engine, u,
                                                       bounded_options);
      const double scale = std::max(1.0, std::abs(exact_cost));
      // Achieved cost is a real strategy's canonical cost (never a
      // truncated estimate) and upper-bounds the exact optimum.
      EXPECT_EQ(bounded.cost, env.cost_of(bounded.strategy))
          << "trial " << trial << " agent " << u;
      EXPECT_GE(bounded.cost, exact_cost - 1e-12 * scale);
      // Lower bound stays admissible and never exceeds the achieved cost.
      EXPECT_LE(bounded.lower_bound, exact_cost + 1e-12 * scale)
          << "trial " << trial << " agent " << u;
      EXPECT_LE(bounded.lower_bound, bounded.cost + 1e-12 * scale);
      EXPECT_GE(bounded.beta, 1.0);
      if (bounded.exact) {
        ApproxBrOptions unbounded_options = bounded_options;
        unbounded_options.repair_cap = 0;
        const auto unbounded = approx_best_response_ladder(engine, u,
                                                           unbounded_options);
        EXPECT_EQ(bounded.cost, unbounded.cost)
            << "trial " << trial << " agent " << u;
        EXPECT_NEAR(bounded.cost, exact_cost, 1e-9 * scale)
            << "trial " << trial << " agent " << u;
      }
    }
  }
}

TEST(ApproxLadder, AdaptiveRadiusAloneKeepsCertificatesSound) {
  // Make the candidate-weight-derived radius the *only* live truncation
  // criterion (huge write cap): estimates may coarsen, but achieved costs
  // stay canonical, bounds stay admissible, and exactness stays truthful.
  // With the radius disabled the same huge cap never fires, which must
  // reproduce the unbounded ladder bit for bit (the never-truncates
  // identity of the bounded kernel).
  Rng rng(137);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_euclidean_game(n, alpha, 2.0, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    engine.warm_distances();
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_exact_best_response(game, profile, u);
      const AgentEnvironment env(game, profile, u);
      const double exact_cost = env.cost_of(naive.strategy);
      const double scale = std::max(1.0, std::abs(exact_cost));

      ApproxBrOptions radius_only;
      radius_only.budget = 4;
      radius_only.repair_cap = 1u << 20;  // backstop cap that never fires
      radius_only.repair_radius_scale = 1.5;  // tight: truncates often
      radius_only.incumbent = engine.agent_cost(u);
      radius_only.current_dist = &engine.distances_warm(u);
      const auto bounded = approx_best_response_ladder(engine, u,
                                                       radius_only);
      EXPECT_EQ(bounded.cost, env.cost_of(bounded.strategy))
          << "trial " << trial << " agent " << u;
      EXPECT_GE(bounded.cost, exact_cost - 1e-12 * scale);
      EXPECT_LE(bounded.lower_bound, exact_cost + 1e-12 * scale)
          << "trial " << trial << " agent " << u;
      EXPECT_LE(bounded.lower_bound, bounded.cost + 1e-12 * scale);

      ApproxBrOptions no_radius = radius_only;
      no_radius.repair_radius_scale = 0.0;  // nothing can truncate
      ApproxBrOptions unbounded = radius_only;
      unbounded.repair_cap = 0;
      unbounded.repair_radius_scale = 0.0;
      const auto a = approx_best_response_ladder(engine, u, no_radius);
      const auto b = approx_best_response_ladder(engine, u, unbounded);
      EXPECT_TRUE(a.strategy == b.strategy)
          << "trial " << trial << " agent " << u;
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.lower_bound, b.lower_bound);
      EXPECT_EQ(a.exact, b.exact);
    }
  }
}

TEST(ApproxLadder, RepairCapZeroIsBitwiseIdentity) {
  // repair_cap = 0 (and no current-network rows) must reproduce the
  // historical ladder bit for bit -- same strategy, cost, certificates.
  Rng rng(131);
  const int n = 14;
  const Game game = random_euclidean_game(n, 1.2, 2.0, rng);
  StrategyProfile profile = random_profile(game, rng);
  force_mutual_buys(game, profile, n / 3, rng);
  DeviationEngine engine(game, profile);
  for (int u = 0; u < n; ++u) {
    ApproxBrOptions defaults;
    defaults.budget = 5;
    defaults.incumbent = engine.agent_cost(u);
    ApproxBrOptions cap0 = defaults;
    cap0.repair_cap = 0;
    const auto a = approx_best_response_ladder(engine, u, defaults);
    const auto b = approx_best_response_ladder(engine, u, cap0);
    EXPECT_TRUE(a.strategy == b.strategy) << "agent " << u;
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lower_bound, b.lower_bound);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.exact, b.exact);
  }
}

TEST(ApproxLadder, CertifyAgentsMatchesPerAgentWarmLadder) {
  // The batch certifier reorders work for spatial locality but must return
  // per-agent results identical to individually invoking the warm ladder
  // with the same options, in the caller's input order.
  Rng rng(137);
  const int n = 40;
  const Game game = random_euclidean_game(n, 2.0, 2.0, rng);
  const StrategyProfile profile = random_profile(game, rng);
  const std::vector<int> agents{7, 31, 2, 19, 11};

  ApproxBrOptions options;
  options.budget = 5;
  options.repair_cap = 64;
  DeviationEngine batch_engine(game, profile);
  const std::vector<CertifiedAgent> certified =
      certify_agents(batch_engine, agents, options);
  ASSERT_EQ(certified.size(), agents.size());

  DeviationEngine engine(game, profile);
  engine.warm_distances();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const int u = agents[i];
    EXPECT_EQ(certified[i].agent, u) << "input order must be preserved";
    ApproxBrOptions per = options;
    per.incumbent = engine.agent_cost(u);
    per.current_dist = &engine.distances_warm(u);
    const auto solo = approx_best_response_ladder(engine, u, per);
    EXPECT_EQ(certified[i].current_cost, per.incumbent);
    EXPECT_TRUE(certified[i].result.strategy == solo.strategy) << "u=" << u;
    EXPECT_EQ(certified[i].result.cost, solo.cost);
    EXPECT_EQ(certified[i].result.lower_bound, solo.lower_bound);
    EXPECT_EQ(certified[i].result.exact, solo.exact);
  }
}

TEST(ApproxLadder, FullBudgetIsCertifiedExact) {
  // With budget >= n-1 the shortlist covers every target: the escape bound
  // is vacuous (+inf), so tier 2 must certify exactness and match the naive
  // search's strategy cost.
  Rng rng(103);
  const int n = 9;
  const Game game = random_euclidean_game(n, 1.5, 2.0, rng);
  const StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < n; ++u) {
    ApproxBrOptions options;
    options.budget = n - 1;
    const auto ladder = approx_best_response_ladder(game, profile, u, options);
    EXPECT_TRUE(ladder.exact) << "agent " << u;
    EXPECT_EQ(ladder.beta, 1.0);
    const auto naive = naive_exact_best_response(game, profile, u);
    const AgentEnvironment env(game, profile, u);
    EXPECT_EQ(ladder.cost, env.cost_of(naive.strategy)) << "agent " << u;
  }
}

TEST(ApproxLadder, EngineOverloadMatchesProfileOverload) {
  Rng rng(107);
  const int n = 12;
  const Game game = random_euclidean_game(n, 1.0, 2.0, rng);
  const StrategyProfile profile = random_profile(game, rng);
  DeviationEngine engine(game, profile);
  for (int u = 0; u < n; ++u) {
    ApproxBrOptions options;
    options.budget = 6;
    const auto a = approx_best_response_ladder(game, profile, u, options);
    const auto b = approx_best_response_ladder(engine, u, options);
    EXPECT_TRUE(a.strategy == b.strategy) << "agent " << u;
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lower_bound, b.lower_bound);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.exact, b.exact);
  }
}

TEST(ApproxLadder, MoveRuleIsRegisteredAndConverges) {
  Rng rng(109);
  const int n = 24;
  const Game game = random_euclidean_game(n, 4.0, 2.0, rng);
  DynamicsOptions options;
  options.rule = MoveRule::kApproxLadder;
  options.approx_budget = 6;
  options.max_moves = 4000;
  options.seed = 5;
  options.record_steps = false;
  const auto result = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_TRUE(result.converged);
  // At the reached profile no agent has an improving ladder move (that is
  // the convergence condition the kernel certified); spot-check directly.
  DeviationEngine engine(game, result.final_profile);
  for (int u = 0; u < n; u += 5) {
    ApproxBrOptions ladder_options;
    ladder_options.budget = 6;
    ladder_options.incumbent = engine.agent_cost(u);
    const auto ladder = approx_best_response_ladder(engine, u,
                                                    ladder_options);
    EXPECT_FALSE(ladder.improved &&
                 !(ladder.strategy == engine.profile().strategy(u)))
        << "agent " << u;
  }
}

// --- euclidean dial opt-out -----------------------------------------------

TEST(EuclideanBackend, DialCapabilityStaysUncertified) {
  // p-norm distances are generally irrational: the euclidean backend must
  // never certify an integer weight bound, even when every coordinate is
  // integral (1-norm distances *could* be integers, but the backend opts
  // out wholesale -- see EuclideanHostBackend::integer_weight_bound).
  Rng rng(113);
  for (double p : {1.0, 2.0, kPNormInf}) {
    const HostGraph host =
        HostGraph::from_points(uniform_points(30, 2, 50.0, rng), p);
    EXPECT_EQ(host.integer_weight_bound(), 0.0) << "p=" << p;
    EXPECT_EQ(host.dial_weight_bound(), 0) << "p=" << p;
  }
  // Contrast: the unit host certifies bound 1 (the dial fast path).
  EXPECT_EQ(HostGraph::unit(8).dial_weight_bound(), 1);
}

}  // namespace
}  // namespace gncg
