// Tests for the spatial candidate oracle and the approximate-BR ladder:
// oracle determinism and full-budget identity with the dense enumeration,
// grid k-NN against brute force, the shortlist-restricted exact search
// against the naive baseline (bitwise at full coverage), the ladder's
// certificates (upper bound, admissible lower bound, certified exactness),
// and the euclidean backend's dial opt-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
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
#include "reference/naive_search.hpp"
#include "support/parallel.hpp"
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

TEST(ApproxLadder, CertificatesAreSoundAgainstExactAtModerateN) {
  // The size range the naive reference cannot reach: on uniform [0,1000]^2
  // hosts at alpha = 100 with n up to 128, eight evenly spaced agents of a
  // random profile run the ladder (budget 8) with exact and with truncating
  // rows, each with and without the current-network floor.  Against the
  // pruned exact best response bounded by the agent's incumbent, the
  // ladder's cost may never beat the optimum, its lower bound may never
  // exceed it, and a claim of exactness must be true.
  bool cap_fired = false;
  for (const int n : {32, 64, 128}) {
    Rng rng(910u + static_cast<std::uint64_t>(n));
    const Game game(
        HostGraph::from_points(uniform_points(n, 2, 1000.0, rng), 2.0), 100.0);
    DeviationEngine engine(game, random_profile(game, rng));
    engine.warm_distances();
    for (int i = 0; i < 8; ++i) {
      const int u = i * n / 8;
      BestResponseOptions br_options;
      br_options.incumbent = engine.agent_cost(u);
      const double optimum =
          std::min(exact_best_response(engine, u, br_options).cost,
                   br_options.incumbent);
      const double tol = 1e-9 * std::max(1.0, std::abs(optimum));
      std::uint64_t exact_row_evaluations[2] = {0, 0};
      for (const std::size_t cap : {std::size_t{0}, std::size_t{16}}) {
        for (const int with_floor : {0, 1}) {
          ApproxBrOptions options;
          options.budget = 8;
          options.repair_cap = cap;
          options.incumbent = br_options.incumbent;
          if (with_floor) options.current_dist = &engine.distances_warm(u);
          const auto ladder = approx_best_response_ladder(engine, u, options);
          const std::string where =
              "n " + std::to_string(n) + " agent " + std::to_string(u) +
              " cap " + std::to_string(cap) + " floor " +
              std::to_string(with_floor);
          EXPECT_GE(ladder.cost, optimum - tol) << where;
          EXPECT_LE(ladder.lower_bound, optimum + tol) << where;
          if (ladder.exact) {
            EXPECT_NEAR(ladder.cost, optimum, tol) << where;
          }
          if (cap == 0)
            exact_row_evaluations[with_floor] = ladder.evaluations;
          else if (ladder.evaluations != exact_row_evaluations[with_floor])
            cap_fired = true;
        }
      }
    }
  }
  // The capped calls must take a different path somewhere, or no row ever
  // truncated.
  EXPECT_TRUE(cap_fired);
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

TEST(ApproxLadder, NeverFiringCapIsBitwiseIdentity) {
  // A cap that never fires builds every facility row exactly, so the
  // bounded ladder must reproduce the cap-0 ladder bit for bit (the
  // never-truncates identity of the bounded kernel), and its achieved cost
  // stays a canonical cost with an admissible lower bound.
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

      ApproxBrOptions never_fires;
      never_fires.budget = 4;
      never_fires.repair_cap = 1u << 20;
      never_fires.incumbent = engine.agent_cost(u);
      never_fires.current_dist = &engine.distances_warm(u);
      ApproxBrOptions unbounded = never_fires;
      unbounded.repair_cap = 0;
      const auto a = approx_best_response_ladder(engine, u, never_fires);
      const auto b = approx_best_response_ladder(engine, u, unbounded);
      EXPECT_EQ(a.cost, env.cost_of(a.strategy))
          << "trial " << trial << " agent " << u;
      EXPECT_LE(a.lower_bound, exact_cost + 1e-12 * scale)
          << "trial " << trial << " agent " << u;
      EXPECT_TRUE(a.strategy == b.strategy)
          << "trial " << trial << " agent " << u;
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.lower_bound, b.lower_bound);
      EXPECT_EQ(a.exact, b.exact);
    }
  }
}

/// One ladder result of the cap-0 golden table: strategy members, the IEEE
/// bits of cost and lower bound, tier and exactness.
struct GoldenLadderRow {
  std::uint64_t seed;
  int agent;
  std::vector<int> strategy;
  std::uint64_t cost_bits;
  std::uint64_t lower_bound_bits;
  int tier;
  bool exact;
};

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(ApproxLadder, RepairCapZeroIsBitwiseIdentity) {
  // The cap-0 ladder must reproduce, bit for bit, a table recorded from the
  // ladder before facility rows replaced its tier-1 probes and stacked
  // repairs: 3 games x every agent, covering tier-1 and tier-2 finals,
  // certified-exact and uncertified results, agents with and without the
  // current-network row, and shortlists from 4 candidates to full coverage.
  static const std::vector<GoldenLadderRow> kGolden = {
    {211, 0, {7, 13}, 0x409065eecf6c8d40ULL, 0x409065eecf6c8d40ULL, 2, true},
    {211, 1, {10}, 0x408b6b03934fb8fbULL, 0x4087ae2ea212d54aULL, 2, false},
    {211, 2, {9}, 0x40913c6650fb00e4ULL, 0x408b0f74f378705fULL, 2, false},
    {211, 3, {}, 0x408a841d2146f7e7ULL, 0x408a841d2146f7e7ULL, 2, true},
    {211, 4, {7, 8}, 0x4087d7abdc8d54a5ULL, 0x4081f4afa5e0d7b3ULL, 2, false},
    {211, 5, {1, 7}, 0x40908c029c5c8bd7ULL, 0x408c6e3f0184601cULL, 2, false},
    {211, 6, {1, 8, 10}, 0x4093059c53c6ad67ULL, 0x4093059c53c6ad67ULL, 2, true},
    {211, 7, {4, 5, 8}, 0x408b3f1401c21e98ULL, 0x40833de9a234297cULL, 2, false},
    {211, 8, {4, 7}, 0x4087a2334fb83fb7ULL, 0x4081a59cc628e925ULL, 2, false},
    {211, 9, {3}, 0x408ae92c20fdbb47ULL, 0x408ae92c20fdbb47ULL, 2, true},
    {211, 10, {1, 2}, 0x4091d43a1b01ae8dULL, 0x408b5a00501b4f8eULL, 2, false},
    {211, 11, {5}, 0x409044301ceb4d38ULL, 0x408e3669ddd13a1cULL, 2, false},
    {211, 12, {3, 4}, 0x40889b5884ca8f7fULL, 0x40889b5884ca8f7fULL, 2, true},
    {211, 13, {0, 4, 12}, 0x408d77419ef57b92ULL, 0x40865a76cdd7028dULL, 2, false},
    {223, 0, {7, 9, 12}, 0x408dd8a042062f20ULL, 0x408dd8a042062f20ULL, 2, true},
    {223, 1, {5, 11}, 0x408cdff03742eef1ULL, 0x408bcca95559dcbdULL, 2, false},
    {223, 2, {1, 5, 11}, 0x4091b9fcc113808eULL, 0x408cf6f908e86522ULL, 2, false},
    {223, 3, {1, 4, 11}, 0x4090eb8d4aee3588ULL, 0x4090eb8d4aee3588ULL, 2, true},
    {223, 4, {3, 13}, 0x4090c607652798ddULL, 0x4089a81bee088fe9ULL, 2, false},
    {223, 5, {1, 11}, 0x408e050d150288e0ULL, 0x408b5114b929ba04ULL, 2, false},
    {223, 6, {7}, 0x4091a99d327bb22fULL, 0x4091a99d327bb22fULL, 2, true},
    {223, 7, {0, 6, 9}, 0x40928fefd509d558ULL, 0x408b2655160fec0aULL, 2, false},
    {223, 8, {10, 12}, 0x408953265d892068ULL, 0x408859ec72734e76ULL, 2, false},
    {223, 9, {0, 8, 12}, 0x408c01e8059e7a64ULL, 0x408c01e8059e7a64ULL, 2, true},
    {223, 10, {2, 8, 12}, 0x408da7c0108b260dULL, 0x408b0fb9f56db0a6ULL, 2, false},
    {223, 11, {1, 3, 8}, 0x408fa4a4e95f270bULL, 0x40842b3091716a9eULL, 2, false},
    {223, 12, {0, 2, 9, 11}, 0x408d4471c748c7e8ULL, 0x408d4471c748c7e8ULL, 2, true},
    {223, 13, {3, 11}, 0x408f26ca2cf66debULL, 0x4086eb72497be1cbULL, 2, false},
    {227, 0, {}, 0x4099aa3238c957f6ULL, 0x4099aa3238c957f6ULL, 1, true},
    {227, 1, {}, 0x40940745cbc2d609ULL, 0x40940745cbc2d609ULL, 1, true},
    {227, 2, {1}, 0x40a6546fee85db6aULL, 0x40a6546fee85db6aULL, 2, true},
    {227, 3, {8}, 0x40a56a1c281735c6ULL, 0x40a56a1c281735c6ULL, 2, true},
    {227, 4, {5}, 0x40a118ae20f211c3ULL, 0x40a118ae20f211c3ULL, 2, true},
    {227, 5, {4}, 0x409c1d93d4cda22aULL, 0x409c1d93d4cda22aULL, 2, true},
    {227, 6, {12}, 0x409cfcccde39d991ULL, 0x409cfcccde39d991ULL, 2, true},
    {227, 7, {9}, 0x409842aeba6aa408ULL, 0x409842aeba6aa408ULL, 2, true},
    {227, 8, {3}, 0x40a2b56791d1ff97ULL, 0x40a2b56791d1ff97ULL, 2, true},
    {227, 9, {7}, 0x4096e7e418472009ULL, 0x4096e7e418472009ULL, 2, true},
    {227, 10, {9}, 0x40a9ac34f9b2a5f4ULL, 0x40a826f54259f140ULL, 2, false},
    {227, 11, {3}, 0x40ad39bd48bfa8bcULL, 0x40ad39bd48bfa8bcULL, 2, true},
    {227, 12, {6}, 0x4098d2f496387b19ULL, 0x4098d2f496387b19ULL, 2, true},
    {227, 13, {0}, 0x40a50fad7349f96cULL, 0x40a50fad7349f96cULL, 2, true},
  };
  std::size_t next = 0;
  for (const std::uint64_t seed : {211u, 223u, 227u}) {
    Rng rng(seed);
    const int n = 14;
    const double alpha = seed == 227u ? 60.0 : rng.uniform_real(0.5, 4.0);
    const Game game = random_euclidean_game(n, alpha, 2.0, rng);
    StrategyProfile profile = seed == 227u ? recursive_tree_profile(game, rng)
                                           : random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    engine.warm_distances();
    for (int u = 0; u < n; ++u) {
      ASSERT_LT(next, kGolden.size());
      const GoldenLadderRow& expect = kGolden[next++];
      ASSERT_EQ(expect.seed, seed);
      ASSERT_EQ(expect.agent, u);
      ApproxBrOptions options;
      options.budget = (u % 3 == 0) ? n - 1 : 4 + u % 3;
      options.repair_cap = 0;
      options.incumbent = engine.agent_cost(u);
      if (u % 2 == 0) options.current_dist = &engine.distances_warm(u);
      const auto ladder = approx_best_response_ladder(engine, u, options);
      std::vector<int> members;
      ladder.strategy.for_each([&](int v) { members.push_back(v); });
      EXPECT_EQ(members, expect.strategy) << "seed " << seed << " agent " << u;
      EXPECT_EQ(bits_of(ladder.cost), expect.cost_bits)
          << "seed " << seed << " agent " << u;
      EXPECT_EQ(bits_of(ladder.lower_bound), expect.lower_bound_bits)
          << "seed " << seed << " agent " << u;
      EXPECT_EQ(ladder.tier, expect.tier) << "seed " << seed << " agent " << u;
      EXPECT_EQ(ladder.exact, expect.exact)
          << "seed " << seed << " agent " << u;
    }
  }
  EXPECT_EQ(next, kGolden.size());
}

TEST(ApproxLadder, ThreadCountInvariant) {
  // The ladder's row build and tier 2's branch fan-out run on the worker
  // pool; its result must not depend on the pool size.  On euclidean hosts
  // with shortlists past the row build's serial cutoff (32 rows) and
  // shorter ones, exact (cap 0) and firing-cap rows, every agent's
  // strategy, cost and lower-bound bits, tier, exactness and evaluation
  // count must agree at 1 and 8 threads.  Two games: a sparse high-alpha
  // tree start, and a low-alpha random start whose tier-2 branches are
  // big enough to run concurrently.
  struct Outcome {
    std::vector<int> strategy;
    std::uint64_t cost_bits;
    std::uint64_t lower_bound_bits;
    int tier;
    bool exact;
    std::uint64_t evaluations;
  };
  struct Config {
    double alpha;
    bool tree_start;
    int short_budget;  ///< shortlists of short_budget + u % 4; u % 4 == 0: full
  };
  Rng rng(239);
  const int n = 40;
  for (const Config config : {Config{60.0, true, 5}, Config{8.0, false, 10}}) {
    const Game game = random_euclidean_game(n, config.alpha, 2.0, rng);
    StrategyProfile profile = config.tree_start
                                  ? recursive_tree_profile(game, rng)
                                  : random_profile(game, rng);
    force_mutual_buys(game, profile, n / 4, rng);
    DeviationEngine engine(game, profile);
    engine.warm_distances();
    const auto run_all = [&](std::size_t cap) {
      std::vector<Outcome> out;
      for (int u = 0; u < n; ++u) {
        ApproxBrOptions options;
        options.budget = (u % 4 == 0) ? n - 1 : config.short_budget + u % 4;
        options.repair_cap = cap;
        options.incumbent = engine.agent_cost(u);
        if (u % 2 == 0) options.current_dist = &engine.distances_warm(u);
        const auto ladder = approx_best_response_ladder(engine, u, options);
        Outcome o{{}, bits_of(ladder.cost), bits_of(ladder.lower_bound),
                  ladder.tier, ladder.exact, ladder.evaluations};
        ladder.strategy.for_each([&](int v) { o.strategy.push_back(v); });
        out.push_back(std::move(o));
      }
      return out;
    };
    bool cap_fired = false;
    int tier2_runs = 0;
    std::vector<Outcome> exact_rows;
    for (const std::size_t cap : {std::size_t{0}, std::size_t{2}}) {
      set_default_thread_count(1);
      const std::vector<Outcome> one = run_all(cap);
      set_default_thread_count(8);
      const std::vector<Outcome> eight = run_all(cap);
      set_default_thread_count(0);
      for (int u = 0; u < n; ++u) {
        const Outcome& a = one[static_cast<std::size_t>(u)];
        const Outcome& b = eight[static_cast<std::size_t>(u)];
        const std::string where = "alpha " + std::to_string(config.alpha) +
                                  " cap " + std::to_string(cap) + " agent " +
                                  std::to_string(u);
        EXPECT_EQ(a.strategy, b.strategy) << where;
        EXPECT_EQ(a.cost_bits, b.cost_bits) << where;
        EXPECT_EQ(a.lower_bound_bits, b.lower_bound_bits) << where;
        EXPECT_EQ(a.tier, b.tier) << where;
        EXPECT_EQ(a.exact, b.exact) << where;
        EXPECT_EQ(a.evaluations, b.evaluations) << where;
        if (a.tier == 2) ++tier2_runs;
      }
      if (cap == 0) {
        exact_rows = one;
      } else {
        for (int u = 0; u < n; ++u)
          if (one[static_cast<std::size_t>(u)].evaluations !=
              exact_rows[static_cast<std::size_t>(u)].evaluations)
            cap_fired = true;
      }
    }
    // The capped run must take a different path somewhere, or it never
    // exercised truncated rows; tier 2 must run, or the fan-out went
    // untested.
    EXPECT_TRUE(cap_fired) << "alpha " << config.alpha;
    EXPECT_GT(tier2_runs, 0) << "alpha " << config.alpha;
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
