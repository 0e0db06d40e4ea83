// Tests for best-response machinery: the pruned exact search against the
// unpruned brute force, the incremental br_search engine against the naive
// per-subset-Dijkstra baseline (SUM and MAX, full, certification and
// restricted searches), the facility-row identity the exact search runs on,
// single-move scans, and the improvement predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/br_search.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/profile_gen.hpp"
#include "graph/dijkstra.hpp"
#include "graph/improvement_rows.hpp"
#include "graph/distance_matrix.hpp"
#include "graph/incremental_sssp.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "reference/naive_search.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "variants/max_game.hpp"

namespace gncg {
namespace {

/// Randomized hosts across model classes for property sweeps.
Game random_game(int n, double alpha, int flavor, Rng& rng) {
  switch (flavor % 4) {
    case 0: return Game(random_metric_host(n, rng), alpha);
    case 1: return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 2: return Game(random_general_host(n, rng), alpha);
    default: return Game(random_one_inf_host(n, 0.6, rng), alpha);
  }
}

/// Randomized hosts across every backend kind (dense model classes plus the
/// implicit euclidean / tree backends) for the differential fuzz.
Game random_backend_game(int n, double alpha, int flavor, Rng& rng) {
  switch (flavor % 6) {
    case 0: return Game(random_metric_host(n, rng), alpha);
    case 1: return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 2: return Game(random_general_host(n, rng), alpha);
    case 3: return Game(random_one_inf_host(n, 0.6, rng), alpha);
    case 4:
      return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                         2.0),
                  alpha);
    default:
      return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)),
                  alpha);
  }
}

/// Inserts `pairs` mutual (double-ownership) buys into the profile: both
/// endpoints pay for the same built edge, the state dynamics can pass
/// through and the environment masking must keep.
void force_mutual_buys(const Game& game, StrategyProfile& profile, int pairs,
                       Rng& rng) {
  const int n = game.node_count();
  for (int j = 0; j < pairs; ++j) {
    const int a = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    const int b = static_cast<int>(rng.uniform_below(
        static_cast<std::uint64_t>(n)));
    if (a == b || !game.can_buy(a, b)) continue;
    profile.add_buy(a, b);
    profile.add_buy(b, a);
  }
}

TEST(ExactBestResponse, MatchesBruteForceAcrossModels) {
  Rng rng(101);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_below(3));  // 4..6
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_game(n, alpha, trial, rng);
    const StrategyProfile profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(static_cast<std::uint64_t>(n)));
    const auto exact = exact_best_response(game, profile, u);
    const auto brute = testing::brute_force_best_response(game, profile, u);
    EXPECT_NEAR(exact.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost))
        << "trial " << trial << " agent " << u;
    EXPECT_LE(exact.evaluations, brute.evaluations);
  }
}

TEST(ExactBestResponse, PrunesSubstantially) {
  // With a large alpha the best response buys few edges, so the edge-cost
  // lower bound cuts nearly the whole 2^(n-1) subset tree.
  Rng rng(103);
  const Game game(random_metric_host(8, rng), 20.0);
  const StrategyProfile profile = random_profile(game, rng);
  const auto exact = exact_best_response(game, profile, 0);
  const auto brute = testing::brute_force_best_response(game, profile, 0);
  EXPECT_NEAR(exact.cost, brute.cost, 1e-9 * std::max(1.0, brute.cost));
  EXPECT_LT(exact.evaluations, brute.evaluations / 2)
      << "pruning should cut most of the 2^(n-1) subsets";
}

TEST(ExactBestResponse, IncumbentEarlyExitFindsImprovement) {
  Rng rng(107);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile(5);  // empty: every agent is at infinite cost
  BestResponseOptions options;
  options.incumbent = agent_cost(game, profile, 0);
  options.first_improvement = true;
  const auto result = exact_best_response(game, profile, 0, options);
  EXPECT_TRUE(result.improved);
  EXPECT_LT(result.cost, kInf);
}

TEST(ExactBestResponse, ReportsNoImprovementAtOptimum) {
  Rng rng(109);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile = random_profile(game, rng);
  const auto full = exact_best_response(game, profile, 2);
  StrategyProfile best = profile;
  best.set_strategy(2, full.strategy);
  BestResponseOptions options;
  options.incumbent = agent_cost(game, best, 2);
  EXPECT_FALSE(exact_best_response(game, best, 2, options).improved);
  EXPECT_FALSE(has_improving_deviation(game, best, 2));
}

TEST(ExactBestResponse, EnvironmentCostMatchesAgentCost) {
  Rng rng(113);
  const Game game(random_metric_host(6, rng), 1.3);
  const StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < 6; ++u) {
    const AgentEnvironment env(game, profile, u);
    EXPECT_NEAR(env.cost_of(profile.strategy(u)), agent_cost(game, profile, u),
                1e-9);
  }
}

TEST(ExactBestResponse, NeverBuysForbiddenEdges) {
  Rng rng(127);
  const Game game(random_one_inf_host(6, 0.5, rng), 0.7);
  const StrategyProfile profile = random_profile(game, rng);
  const auto result = exact_best_response(game, profile, 0);
  result.strategy.for_each([&](int v) {
    EXPECT_LT(game.weight(0, v), kInf);
  });
}

TEST(SingleMoves, AdditionImprovesDisconnectedAgent) {
  // Everyone but agent 0 forms a star; agent 0 is isolated, so any single
  // purchase connects it to the whole network.
  Rng rng(131);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile(5);
  for (int v = 2; v < 5; ++v) profile.add_buy(1, v);
  const auto result = best_addition(game, profile, 0);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kAdd);
  EXPECT_EQ(result.current_cost, kInf);
  EXPECT_LT(result.cost, kInf);
}

TEST(SingleMoves, DeletionOfRedundantEdgeImproves) {
  // Complete profile on a triangle: dropping the heaviest edge helps.
  DistanceMatrix weights(3, 0.0);
  weights.set_symmetric(0, 1, 1.0);
  weights.set_symmetric(1, 2, 1.0);
  weights.set_symmetric(0, 2, 2.0);
  const Game game(HostGraph::from_weights(std::move(weights)), 5.0);
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  profile.add_buy(1, 2);
  profile.add_buy(0, 2);
  const auto result = best_single_move(game, profile, 0);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kDelete);
  EXPECT_EQ(result.move.remove, 2);
}

TEST(SingleMoves, SwapBeatsAddAndDeleteWhenBothNeeded) {
  // Star at 0 on a path metric: the leaf buying the far edge should swap it
  // for the near one.  Host: points 0,1,10 on a line.
  const PointSet points = line_points({0.0, 1.0, 10.0});
  const Game game(HostGraph::from_points(points, 1.0), 10.0);
  StrategyProfile profile(3);
  profile.add_buy(2, 0);  // node 2 buys the long edge to 0
  profile.add_buy(0, 1);
  const auto result = best_single_move(game, profile, 2);
  EXPECT_TRUE(result.improved);
  EXPECT_EQ(result.move.type, MoveType::kSwap);
  EXPECT_EQ(result.move.remove, 0);
  EXPECT_EQ(result.move.add, 1);
}

TEST(SingleMoves, BestSingleMoveNeverWorseThanBestResponse) {
  Rng rng(137);
  for (int trial = 0; trial < 12; ++trial) {
    const Game game = random_game(5, rng.uniform_real(0.3, 3.0), trial, rng);
    const StrategyProfile profile = random_profile(game, rng);
    const int u = static_cast<int>(rng.uniform_below(5));
    const auto single = best_single_move(game, profile, u);
    const auto full = exact_best_response(game, profile, u);
    EXPECT_GE(single.cost + 1e-9, full.cost)
        << "single move cannot beat the exact best response";
    EXPECT_LE(single.cost, single.current_cost + 1e-9);
  }
}

TEST(SingleMoves, ApplyMoveMatchesReportedCost) {
  Rng rng(139);
  const Game game(random_metric_host(6, rng), 0.8);
  StrategyProfile profile = random_profile(game, rng);
  for (int u = 0; u < 6; ++u) {
    const auto result = best_single_move(game, profile, u);
    if (!result.improved) continue;
    StrategyProfile moved = profile;
    apply_move(moved, u, result.move);
    EXPECT_NEAR(agent_cost(game, moved, u), result.cost, 1e-9);
    return;  // one verified application suffices
  }
}

// --- incremental br_search vs naive baseline (differential fuzz) ----------

TEST(BrSearchDifferential, FullSearchMatchesNaiveAcrossBackends) {
  Rng rng(211);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 6 + (trial % 5);  // 6..10
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_exact_best_response(game, profile, u);
      const auto fast = exact_best_response(game, profile, u);
      EXPECT_TRUE(fast.strategy == naive.strategy)
          << "trial " << trial << " agent " << u;
      EXPECT_EQ(fast.improved, naive.improved);
      // The new engine's evaluation is canonical: its cost equals the
      // environment re-evaluation of the winning strategy bitwise.  (The
      // naive search records its running DFS accumulator instead, whose
      // low-order bits are path-dependent, so its raw cost is compared
      // through re-evaluation.)
      const AgentEnvironment env(game, profile, u);
      EXPECT_EQ(fast.cost, env.cost_of(naive.strategy))
          << "trial " << trial << " agent " << u;
      if (naive.cost < kInf) {
        EXPECT_NEAR(fast.cost, naive.cost,
                    1e-12 * std::max(1.0, std::abs(naive.cost)));
      } else {
        EXPECT_FALSE(fast.cost < kInf);
      }
    }
  }
}

TEST(BrSearchDifferential, CertificationMatchesNaiveAcrossBackends) {
  // NE-certification mode: incumbent = current cost, stop at the first
  // strict improvement.  The found improvement (the DFS-first one) must be
  // identical, not just its existence.
  Rng rng(227);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      BestResponseOptions options;
      options.incumbent = agent_cost(game, profile, u);
      options.first_improvement = true;
      const auto naive = naive_exact_best_response(
          game, profile, u, {options.incumbent, options.first_improvement});
      const auto fast = exact_best_response(engine, u, options);
      EXPECT_EQ(fast.improved, naive.improved)
          << "trial " << trial << " agent " << u;
      if (naive.improved) {
        EXPECT_TRUE(fast.strategy == naive.strategy)
            << "trial " << trial << " agent " << u;
        const AgentEnvironment env(game, profile, u);
        EXPECT_EQ(fast.cost, env.cost_of(naive.strategy));
      }
      EXPECT_EQ(fast.improved, has_improving_deviation(engine, u));
    }
  }
}

TEST(BrSearchDifferential, SettledProfilesMatchNaiveAtModerateN) {
  // The certification workload's shape at sizes the random-profile fuzz
  // above never reaches: a recursive-tree start settled by best-single-move
  // dynamics (at most 8n moves), so most agents sit at or near a best
  // response.  alpha is scaled with n per backend (dense 1-2: alpha = n;
  // euclidean: alpha = n/4; tree: alpha = 2) to keep the NP-hard search
  // tractable for the naive reference.  Every agent is certified by both
  // searches, and eight evenly spaced agents get an incumbent-bounded full
  // search from both; the verdicts, and every improving strategy, must
  // agree.
  int improving_agents = 0;
  std::uint64_t point = 0;
  for (const char* backend : {"dense", "euclidean", "tree"}) {
    for (const int n : {24, 64}) {
      Rng rng(stream_seed("bench_br", point++, 20190416u));
      const std::string kind = backend;
      const Game game =
          kind == "euclidean"
              ? Game(HostGraph::from_points(uniform_points(n, 2, 1000.0, rng),
                                            2.0),
                     n / 4.0)
          : kind == "tree"
              ? Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)), 2.0)
              : Game(random_one_two_host(n, 0.5, rng), n);
      DynamicsOptions settle;
      settle.rule = MoveRule::kBestSingleMove;
      settle.scheduler = SchedulerKind::kRoundRobin;
      settle.max_moves = static_cast<std::uint64_t>(8) * n;
      settle.detect_cycles = false;
      const auto settled =
          run_dynamics(game, recursive_tree_profile(game, rng), settle);
      DeviationEngine engine(game, settled.final_profile);
      const StrategyProfile& profile = engine.profile();
      const std::string where = kind + " n " + std::to_string(n);

      for (int u = 0; u < n; ++u) {
        BestResponseOptions options;
        options.incumbent = engine.agent_cost(u);
        options.first_improvement = true;
        const auto naive = naive_exact_best_response(
            game, profile, u, {options.incumbent, options.first_improvement});
        const auto fast = exact_best_response(engine, u, options);
        ASSERT_EQ(fast.improved, naive.improved) << where << " agent " << u;
        if (naive.improved) {
          ++improving_agents;
          EXPECT_TRUE(fast.strategy == naive.strategy)
              << where << " agent " << u;
        }
      }

      for (int i = 0; i < 8; ++i) {
        const int u = i * n / 8;
        BestResponseOptions options;
        options.incumbent = engine.agent_cost(u);
        const auto naive =
            naive_exact_best_response(game, profile, u, {options.incumbent});
        const auto fast = exact_best_response(engine, u, options);
        ASSERT_EQ(fast.improved, naive.improved) << where << " agent " << u;
        if (naive.improved) {
          EXPECT_TRUE(fast.strategy == naive.strategy)
              << where << " agent " << u;
        }
      }
    }
  }
  // The settled profiles must leave someone able to improve, or the
  // differential only compared "no improvement" verdicts.
  EXPECT_GT(improving_agents, 0);
}

TEST(BrSearchDifferential, ThreadCountInvariant) {
  // The parallel first-level fan-out folds branch outcomes in branch
  // order: full-search results -- including the evaluation count -- must be
  // byte-identical between 1 worker and the default pool.
  Rng rng(229);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8 + (trial % 4);
    const double alpha = rng.uniform_real(0.3, 3.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    for (int u = 0; u < n; ++u) {
      set_default_thread_count(1);
      const auto serial = exact_best_response(game, profile, u);
      set_default_thread_count(0);
      const auto parallel = exact_best_response(game, profile, u);
      EXPECT_EQ(parallel.cost, serial.cost);
      EXPECT_TRUE(parallel.strategy == serial.strategy);
      EXPECT_EQ(parallel.improved, serial.improved);
      EXPECT_EQ(parallel.evaluations, serial.evaluations)
          << "full-mode searches do the same work at any thread count";

      // Certification mode: the result (not the work counter) is invariant,
      // including the reported cost of a search that found no improvement.
      BestResponseOptions options;
      options.incumbent = agent_cost(game, profile, u);
      options.first_improvement = true;
      set_default_thread_count(1);
      const auto serial_cert = exact_best_response(game, profile, u, options);
      set_default_thread_count(0);
      const auto parallel_cert =
          exact_best_response(game, profile, u, options);
      EXPECT_EQ(parallel_cert.improved, serial_cert.improved);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel_cert.cost),
                std::bit_cast<std::uint64_t>(serial_cert.cost));
      if (serial_cert.improved) {
        EXPECT_TRUE(parallel_cert.strategy == serial_cert.strategy);
      }
    }
  }
  set_default_thread_count(0);
}

TEST(BrSearchDifferential, MaxSearchMatchesNaiveAcrossBackends) {
  // The MAX objective rides the same facility rows: full and certification
  // searches against the naive MAX search on every backend, with forced
  // double ownership, through both environment paths.
  Rng rng(231);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 6 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const auto naive = naive_max_exact_best_response(game, profile, u);
      const auto fast = max_exact_best_response(game, profile, u);
      EXPECT_TRUE(fast.strategy == naive.strategy)
          << "trial " << trial << " agent " << u;
      EXPECT_EQ(fast.improved, naive.improved);
      StrategyProfile rewired = profile;
      rewired.set_strategy(u, naive.strategy);
      EXPECT_EQ(fast.cost, max_agent_cost(game, rewired, u))
          << "trial " << trial << " agent " << u;
      const auto via_engine = max_exact_best_response(engine, u);
      EXPECT_EQ(via_engine.cost, fast.cost);
      EXPECT_TRUE(via_engine.strategy == fast.strategy);
      EXPECT_EQ(via_engine.evaluations, fast.evaluations);

      BestResponseOptions options;
      options.incumbent = max_agent_cost(game, profile, u);
      options.first_improvement = true;
      const auto naive_cert = naive_max_exact_best_response(
          game, profile, u, {options.incumbent, options.first_improvement});
      const auto fast_cert = max_exact_best_response(engine, u, options);
      EXPECT_EQ(fast_cert.improved, naive_cert.improved)
          << "trial " << trial << " agent " << u;
      if (naive_cert.improved) {
        EXPECT_TRUE(fast_cert.strategy == naive_cert.strategy)
            << "trial " << trial << " agent " << u;
      }
    }
  }
}

TEST(BrSearchDifferential, RestrictedSearchMatchesBruteForceAcrossBackends) {
  // An exact (cap 0) search over a target shortlist -- with repeats and
  // unpurchasable entries, as the spatial oracle may hand over -- must find
  // the optimum over subsets of the list: brute force over those subsets
  // cannot strictly improve on it, and its cost is the canonical cost.
  Rng rng(237);
  for (int trial = 0; trial < 36; ++trial) {
    const int n = 7 + (trial % 6);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      std::vector<int> list;
      for (int j = 0; j < 6; ++j)
        list.push_back(static_cast<int>(
            rng.uniform_below(static_cast<std::uint64_t>(n))));
      BestResponseOptions options;
      options.restrict_targets = &list;
      const auto fast = exact_best_response(engine, u, options);

      std::vector<int> targets;
      for (int v : list)
        if (game.can_buy(u, v)) targets.push_back(v);
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      const AgentEnvironment env(game, profile, u);
      double brute = kInf;
      for (std::uint32_t mask = 0; mask < (1U << targets.size()); ++mask) {
        NodeSet set(n);
        for (std::size_t i = 0; i < targets.size(); ++i)
          if ((mask >> i) & 1U) set.insert(targets[i]);
        brute = std::min(brute, env.cost_of(set));
      }
      fast.strategy.for_each([&](int v) {
        EXPECT_TRUE(std::binary_search(targets.begin(), targets.end(), v))
            << "trial " << trial << " agent " << u << " bought " << v;
      });
      EXPECT_EQ(fast.cost, env.cost_of(fast.strategy))
          << "trial " << trial << " agent " << u;
      EXPECT_FALSE(improves(brute, fast.cost))
          << "trial " << trial << " agent " << u << ": " << brute << " < "
          << fast.cost;
    }
  }
}

// --- facility rows: the exact search's distance state ----------------------

/// Host families of the row gate: dense 1-2 (dial kernel), dense integer
/// weights in {0..3} (dial with zero-weight edges), lazy closure over real
/// weights with zero-weight pairs (heap), euclidean (heap) and tree.
constexpr int kRowFamilies = 5;

Game row_gate_game(int family, int n, Rng& rng) {
  const double alpha = rng.uniform_real(0.5, 4.0);
  switch (family) {
    case 0:
      return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 1:
    case 2: {
      DistanceMatrix weights(n, 0.0);
      for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < n; ++b) {
          const double w =
              family == 1 ? static_cast<double>(rng.uniform_int(0, 3))
                          : (rng.bernoulli(0.2) ? 0.0
                                                : rng.uniform_real(0.5, 9.5));
          weights.set_symmetric(a, b, w);
        }
      return family == 1
                 ? Game(HostGraph::from_weights(std::move(weights)), alpha)
                 : Game(HostGraph::from_weights_lazy(std::move(weights)),
                        alpha);
    }
    case 3:
      return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
                  alpha);
    default:
      return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)), alpha);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BrSearchRows, MinMergeOfSingleInsertRowsIsTheMultiInsertFixpoint) {
  // d_S = min(base, min over x in S of row_x): for random subsets S on every
  // backend, the min-merge of single-insert improvement rows must be
  // bitwise equal to a fresh Dijkstra over environment + S and to stacked
  // repairs in a random insertion order.
  Rng rng(239);
  for (int trial = 0; trial < 40; ++trial) {
    const int family = trial % kRowFamilies;
    const int n = 8 + (trial % 7);
    const Game game = row_gate_game(family, n, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment env(engine, u);
      const auto environment_edges = [&](int x, auto&& visit) {
        env.for_neighbors(x, visit);
      };
      std::vector<double> base;
      dijkstra_over(n, u, environment_edges, base);

      std::vector<int> candidates;
      for (int v = 0; v < n; ++v)
        if (game.can_buy(u, v)) candidates.push_back(v);
      IncrementalSssp builder;
      builder.reset(base);
      std::vector<std::vector<std::pair<int, double>>> rows(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        builder.append_improvement_row(candidates[i],
                                       game.weight(u, candidates[i]),
                                       FrontierPolicy{}, environment_edges,
                                       rows[i]);
        ASSERT_TRUE(same_bits(builder.dist(), base))
            << "row build must leave the vector at base";
        std::vector<char> seen(static_cast<std::size_t>(n), 0);
        for (const auto& [t, d] : rows[i]) {
          const auto ti = static_cast<std::size_t>(t);
          EXPECT_FALSE(seen[ti]) << "node " << t << " listed twice";
          seen[ti] = 1;
          EXPECT_LT(d, base[ti]);
        }
      }

      for (int draw = 0; draw < 6; ++draw) {
        std::vector<std::size_t> chosen;
        for (std::size_t i = 0; i < candidates.size(); ++i)
          if (rng.bernoulli(0.4)) chosen.push_back(i);

        std::vector<double> merged = base;
        for (std::size_t i : chosen)
          for (const auto& [t, d] : rows[i])
            merged[static_cast<std::size_t>(t)] =
                std::min(merged[static_cast<std::size_t>(t)], d);

        NodeSet bought(n);
        for (std::size_t i : chosen) bought.insert(candidates[i]);
        std::vector<double> fresh;
        dijkstra_over(
            n, u,
            [&](int x, auto&& visit) {
              env.for_neighbors(x, visit);
              if (x == u) {
                bought.for_each([&](int v) { visit(v, game.weight(u, v)); });
              } else if (bought.contains(x)) {
                visit(u, game.weight(u, x));
              }
            },
            fresh);
        EXPECT_TRUE(same_bits(merged, fresh))
            << "family " << family << " trial " << trial << " agent " << u
            << " draw " << draw;

        for (std::size_t j = chosen.size(); j > 1; --j)
          std::swap(chosen[j - 1],
                    chosen[static_cast<std::size_t>(rng.uniform_below(j))]);
        IncrementalSssp stacked;
        stacked.reset(base);
        for (std::size_t i : chosen)
          stacked.relax_insert(candidates[i], game.weight(u, candidates[i]),
                               environment_edges);
        EXPECT_TRUE(same_bits(merged, stacked.dist()))
            << "family " << family << " trial " << trial << " agent " << u
            << " draw " << draw;
      }
    }
  }
}

TEST(BrSearchRows, ParallelRowBuildIsThreadCountInvariant) {
  // Enough candidates that the row-build pass itself fans out over the pool
  // (the small-n differentials build their rows serially): full searches
  // must match the 1-thread run bit for bit, work counter included.
  constexpr auto kRegions =
      static_cast<std::size_t>(instrument::Counter::kPoolRegions);
  std::uint64_t pooled_searches = 0;
  const std::uint64_t regions_before = instrument::thread_counters()[kRegions];
  Rng rng(243);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 48;
    const Game game =
        trial % 2 == 0
            ? Game(random_one_two_host(n, 0.5, rng), /*alpha=*/n)
            : Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                          2.0),
                   /*alpha=*/n * 4.0);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 8, rng);
    const DeviationEngine engine(game, profile);
    for (int u = 0; u < n; u += 7) {
      set_default_thread_count(1);
      const auto serial = exact_best_response(engine, u);
      set_default_thread_count(0);
      const auto parallel = exact_best_response(engine, u);
      ++pooled_searches;
      EXPECT_EQ(parallel.cost, serial.cost)
          << "trial " << trial << " agent " << u;
      EXPECT_TRUE(parallel.strategy == serial.strategy);
      EXPECT_EQ(parallel.evaluations, serial.evaluations);
    }
  }
  // More pool regions than searches: some row-build passes fanned out, not
  // only the branch fan-outs.
  if (instrument::compiled_in() && default_thread_count() > 1) {
    EXPECT_GT(instrument::thread_counters()[kRegions] - regions_before,
              pooled_searches);
  }
  set_default_thread_count(0);
}

TEST(BrSearchRows, WithRowBracketsTheLaddersTierOneProbes) {
  // RowFloor::with_row is what ranks and skips the approximate ladder's
  // tier-1 probes, on its two paths:
  //  * exact rows at theta = kInf over a committed strategy's exact vector
  //    (the probe-skip path): the bracket must contain the canonical
  //    in-order sum of min(d_S, row_x), the distance sum of S + x;
  //  * capped rows (1-4 overwrites, truncating constantly at these sizes)
  //    at theta = F_x over the base vector (the truncated ranking pass):
  //    lo + alpha * w_x must stay at or below cost_of({x}), the canonical
  //    cost from a fresh Dijkstra.
  Rng rng(251);
  std::uint64_t exact_probes = 0;
  std::uint64_t truncated_rows = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const int n = 10 + trial % 11;
    const Game game(
        HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
        rng.uniform_real(0.5, 4.0));
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 3, rng);
    const std::size_t cap = 1 + static_cast<std::size_t>(trial % 4);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment env(engine, u);
      const auto environment_edges = [&](int x, auto&& visit) {
        env.for_neighbors(x, visit);
      };
      std::vector<double> base;
      dijkstra_over(n, u, environment_edges, base);
      std::vector<double> host(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        host[static_cast<std::size_t>(v)] = game.host_distance(u, v);
      std::vector<int> candidates;
      std::vector<double> weights;
      for (int v = 0; v < n; ++v)
        if (game.can_buy(u, v)) {
          candidates.push_back(v);
          weights.push_back(game.weight(u, v));
        }

      ImprovementRows exact;
      build_improvement_rows(env, candidates, weights, base, 0,
                             candidates.size(), exact);
      for (int draw = 0; draw < 3; ++draw) {
        // A committed strategy and its exact vector, kept by stacked
        // repairs as tier 1 keeps it.
        std::vector<char> committed(candidates.size(), 0);
        IncrementalSssp sssp;
        sssp.reset(base);
        for (std::size_t i = 0; i < candidates.size(); ++i)
          if (rng.bernoulli(0.3)) {
            committed[i] = 1;
            sssp.relax_insert(candidates[i], weights[i], environment_edges);
          }
        const std::vector<double>& d = sssp.dist();
        RowFloor floors;
        floors.build(host, d, {kInf});
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (committed[i]) continue;
          std::vector<double> merged = d;
          for (const auto& [t, row_t] : exact.entries[i]) {
            double& slot = merged[static_cast<std::size_t>(t)];
            slot = std::min(slot, row_t);
          }
          double canonical = 0.0;
          for (double x : merged) canonical += x;
          const RowFloor::Interval bracket =
              floors.with_row(kInf, exact.entries[i]);
          EXPECT_LE(bracket.lo, canonical)
              << "trial " << trial << " agent " << u << " candidate " << i;
          EXPECT_GE(bracket.hi, canonical)
              << "trial " << trial << " agent " << u << " candidate " << i;
          ++exact_probes;
        }
      }

      ImprovementRows capped;
      build_improvement_rows(env, candidates, weights, base, cap,
                             candidates.size(), capped);
      RowFloor floors;
      floors.build(host, base, capped.frontier);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const RowFloor::Interval bracket =
            floors.with_row(capped.frontier[i], capped.entries[i]);
        NodeSet single(n);
        single.insert(candidates[i]);
        EXPECT_LE(game.alpha() * weights[i] + bracket.lo,
                  env.cost_of(single))
            << "trial " << trial << " agent " << u << " candidate " << i;
        if (capped.frontier[i] < kInf) ++truncated_rows;
      }
    }
  }
  // Both paths ran often: the slack check needs many exact probes
  // (estimate and canonical sum equal up to rounding), the frontier check
  // truncated rows.
  EXPECT_GT(exact_probes, 1000u);
  EXPECT_GT(truncated_rows, 1000u);
}

// --- AgentEnvironment borrow mode (double-ownership masking) --------------

TEST(AgentEnvironmentView, BorrowMatchesOwnedBuildUnderMutualBuys) {
  // The engine-borrowing environment masks u's sole-owned edges on the fly;
  // edges both endpoints buy must survive the mask.  Differential fuzz of
  // borrowed vs owned costs on profiles with forced mutual buys.
  Rng rng(233);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 5 + (trial % 5);
    const double alpha = rng.uniform_real(0.2, 4.0);
    const Game game = random_backend_game(n, alpha, trial, rng);
    StrategyProfile profile = random_profile(game, rng);
    force_mutual_buys(game, profile, n / 2, rng);
    DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment owned(game, profile, u);
      const AgentEnvironment borrowed(engine, u);
      // The agent's own strategy: cost_of must reproduce agent_cost.
      EXPECT_EQ(borrowed.cost_of(profile.strategy(u)),
                owned.cost_of(profile.strategy(u)))
          << "trial " << trial << " agent " << u;
      // Random candidate sets.
      for (int draw = 0; draw < 4; ++draw) {
        NodeSet targets(n);
        for (int v = 0; v < n; ++v)
          if (v != u && game.can_buy(u, v) && rng.bernoulli(0.4))
            targets.insert(v);
        EXPECT_EQ(borrowed.cost_of(targets), owned.cost_of(targets))
            << "trial " << trial << " agent " << u << " draw " << draw;
      }
      // Full searches through both environment paths agree.
      const auto via_profile = exact_best_response(game, profile, u);
      const auto via_engine = exact_best_response(engine, u);
      EXPECT_EQ(via_engine.cost, via_profile.cost);
      EXPECT_TRUE(via_engine.strategy == via_profile.strategy);
    }
  }
}

TEST(SingleMoves, NoneMoveIsNoOp) {
  StrategyProfile profile(3);
  profile.add_buy(0, 1);
  StrategyProfile copy = profile;
  apply_move(copy, 0, SingleMove{});
  EXPECT_EQ(copy, profile);
}

}  // namespace
}  // namespace gncg
