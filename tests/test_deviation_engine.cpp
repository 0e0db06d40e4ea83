// Differential fuzz tests for the incremental deviation engine.
//
// Contract proven here (the precondition for ever deleting naive paths):
//  * On hosts whose weights sum exactly in doubles (unit, {1,2}, {1,inf},
//    small-integer weights) the engine's costs and chosen moves match the
//    naive AgentEnvironment/Dijkstra-per-candidate scans BIT-FOR-BIT.
//  * On real-weighted hosts the delta formulas re-associate floating-point
//    sums, so costs agree to a 1e-12 relative tolerance (far below the
//    kImproveEps = 1e-9 decision threshold) and decisions coincide.
//
// The fuzz axes: random games (four host families) x random profiles (trees
// and trees-plus-chords, random ownership, double ownership) x random move
// sequences (add_buy / remove_buy / set_strategy / apply_move).
//
// The DeviationEngineRepair suite gates the edit-log row repair: after any
// mutation sequence, every row a stale engine serves (repaired or refilled)
// is bitwise equal to a fresh engine's refill on the same profile.
//
// The DeviationEngineScan suite gates the scan's addition-sum memo,
// four-target passes and O(1) floor on the profiles where pruning bites:
// near-equilibrium dynamics states (few improving moves, near-ties at
// alpha ~ 0), double ownership, bridge-only trees and disconnected
// profiles.  It also probes the floor's soundness on every backend
// (including coordinates around 1e6, where rounding is largest) and the
// thread-count independence of parallel warm proposals.
//
// The DeviationEngineWarm suite gates where warm passes run: a warm engine
// dispatches no pool region, and the single-scan warm repairs logged rows
// on the calling thread and fans out only full refills.  That its rows and
// scans are bitwise the batch warm's at any thread count is checked by
// DeviationEngineRepair.WarmDistancesByteIdenticalAcrossThreadCounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/dynamics_policy.hpp"
#include "core/equilibrium.hpp"
#include "core/profile_gen.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "reference/naive_search.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Random complete host with integer weights in [1, 9]: generally
/// non-metric, and every distance/cost sums exactly in doubles.
HostGraph random_integer_host(int n, Rng& rng) {
  DistanceMatrix weights(n, 0.0);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      weights.set_symmetric(u, v,
                            static_cast<double>(rng.uniform_int(1, 9)));
  return HostGraph::from_weights(std::move(weights));
}

/// Expects exact equality, treating two infinities as equal.
void expect_cost_eq(double engine_cost, double naive_cost) {
  if (!(naive_cost < kInf)) {
    EXPECT_FALSE(engine_cost < kInf);
  } else {
    EXPECT_DOUBLE_EQ(engine_cost, naive_cost);
  }
}

void expect_cost_near(double engine_cost, double naive_cost) {
  if (!(naive_cost < kInf)) {
    EXPECT_FALSE(engine_cost < kInf);
  } else {
    const double scale = std::max(1.0, std::abs(naive_cost));
    EXPECT_NEAR(engine_cost, naive_cost, 1e-12 * scale);
  }
}

void expect_move_eq(const SingleMoveResult& from_engine,
                    const SingleMoveResult& from_naive, bool exact) {
  EXPECT_EQ(from_engine.improved, from_naive.improved);
  EXPECT_EQ(from_engine.move.type, from_naive.move.type);
  EXPECT_EQ(from_engine.move.remove, from_naive.move.remove);
  EXPECT_EQ(from_engine.move.add, from_naive.move.add);
  if (exact) {
    expect_cost_eq(from_engine.cost, from_naive.cost);
    expect_cost_eq(from_engine.current_cost, from_naive.current_cost);
  } else {
    expect_cost_near(from_engine.cost, from_naive.cost);
    expect_cost_near(from_engine.current_cost, from_naive.current_cost);
  }
}

/// Compares every scan family and the cached costs of every agent between
/// the engine and the naive evaluators on one fixed profile.
void compare_all_agents(const Game& game, const StrategyProfile& s,
                        bool exact) {
  DeviationEngine engine(game, s);
  ASSERT_TRUE(engine.profile() == s);
  for (int u = 0; u < game.node_count(); ++u) {
    SCOPED_TRACE(::testing::Message() << "agent " << u);
    const double naive_cost = agent_cost(game, s, u);
    if (exact) expect_cost_eq(engine.agent_cost(u), naive_cost);
    else expect_cost_near(engine.agent_cost(u), naive_cost);

    expect_move_eq(engine.best_single_move(u), naive_best_single_move(game, s, u),
                   exact);
    expect_move_eq(engine.best_addition(u), naive_best_addition(game, s, u),
                   exact);
    expect_move_eq(engine.best_swap(u), naive_best_swap(game, s, u), exact);

    EXPECT_EQ(engine.has_improving_single_move(u),
              naive_best_single_move(game, s, u).improved);
  }
}

Game random_game(int family, int n, Rng& rng) {
  const double alpha = rng.uniform_real(0.2, 4.0);
  switch (family) {
    case 0:
      return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 1:
      return Game(random_one_inf_host(n, 0.6, rng), alpha);
    case 2:
      return Game(random_integer_host(n, rng), alpha);
    default:
      return Game(random_metric_host(n, rng), alpha);
  }
}

TEST(DeviationEngineDifferential, SingleMoveScansMatchNaiveOnIntegerHosts) {
  Rng rng(101);
  for (int round = 0; round < 12; ++round) {
    const int family = round % 3;  // integer-exact families only
    const int n = 4 + static_cast<int>(rng.uniform_below(5));
    const Game game = random_game(family, n, rng);
    // Trees exercise the bridge-delta path; chords the Dijkstra fallback.
    const double extra = round % 2 == 0 ? 0.0 : 0.3;
    const StrategyProfile profile = random_profile(game, rng, extra);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " family " << family << " n " << n);
    compare_all_agents(game, profile, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, SingleMoveScansAgreeOnRealHosts) {
  Rng rng(202);
  for (int round = 0; round < 8; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(5));
    const Game game = random_game(3, n, rng);
    const StrategyProfile profile =
        random_profile(game, rng, round % 2 == 0 ? 0.0 : 0.25);
    SCOPED_TRACE(::testing::Message() << "round " << round << " n " << n);
    compare_all_agents(game, profile, /*exact=*/false);
  }
}

TEST(DeviationEngineDifferential, DoubleOwnershipStatesMatchNaive) {
  Rng rng(303);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    StrategyProfile profile = random_profile(game, rng, 0.2);
    // Force some doubly-owned edges: dynamics must pass through such states.
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (u != v && profile.buys(u, v) && rng.bernoulli(0.4))
          profile.add_buy(v, u);
    SCOPED_TRACE(::testing::Message() << "round " << round << " n " << n);
    compare_all_agents(game, profile, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, RandomMoveSequencesKeepStateInSync) {
  Rng rng(404);
  for (int round = 0; round < 6; ++round) {
    const int family = round % 3;
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(family, n, rng);
    StrategyProfile shadow = random_profile(game, rng, 0.2);
    DeviationEngine engine(game, shadow);

    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng.uniform_below(4));
      const int u = static_cast<int>(rng.uniform_below(n));
      const int v = static_cast<int>(rng.uniform_below(n));
      switch (op) {
        case 0:
          if (game.can_buy(u, v)) {
            engine.add_buy(u, v);
            shadow.add_buy(u, v);
          }
          break;
        case 1:
          if (u != v) {
            engine.remove_buy(u, v);
            shadow.remove_buy(u, v);
          }
          break;
        case 2: {
          NodeSet strategy(n);
          for (int t = 0; t < n; ++t)
            if (game.can_buy(u, t) && rng.bernoulli(0.3)) strategy.insert(t);
          engine.set_strategy(u, strategy);
          shadow.set_strategy(u, strategy);
          break;
        }
        default: {
          const auto move = naive_best_single_move(game, shadow, u);
          engine.apply_move(u, move.move);
          apply_move(shadow, u, move.move);
          break;
        }
      }
      ASSERT_TRUE(engine.profile() == shadow) << "round " << round
                                              << " step " << step;
      const int probe = static_cast<int>(rng.uniform_below(n));
      expect_cost_eq(engine.agent_cost(probe), agent_cost(game, shadow, probe));
    }
    // Full scan comparison on the final mutated state.
    compare_all_agents(game, shadow, /*exact=*/true);
  }
}

TEST(DeviationEngineDifferential, CostOfStrategyMatchesAgentEnvironment) {
  Rng rng(505);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.25);
    const DeviationEngine engine(game, profile);
    for (int u = 0; u < n; ++u) {
      const AgentEnvironment env(game, profile, u);
      const AgentEnvironment env_from_engine(engine, u);
      for (int trial = 0; trial < 5; ++trial) {
        NodeSet targets(n);
        for (int t = 0; t < n; ++t)
          if (game.can_buy(u, t) && rng.bernoulli(0.35)) targets.insert(t);
        const double reference = env.cost_of(targets);
        expect_cost_eq(engine.cost_of_strategy(u, targets), reference);
        expect_cost_eq(env_from_engine.cost_of(targets), reference);
      }
    }
  }
}

TEST(DeviationEngineDifferential, EquilibriumPredicatesMatchNaiveScans) {
  Rng rng(606);
  for (int round = 0; round < 6; ++round) {
    const int n = 4 + static_cast<int>(rng.uniform_below(3));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.3);

    bool naive_ge = true, naive_ae = true, naive_se = true;
    for (int u = 0; u < n; ++u) {
      naive_ge = naive_ge && !naive_best_single_move(game, profile, u).improved;
      naive_ae = naive_ae && !naive_best_addition(game, profile, u).improved;
      naive_se = naive_se && !naive_best_swap(game, profile, u).improved;
    }
    EXPECT_EQ(is_greedy_equilibrium(game, profile), naive_ge);
    EXPECT_EQ(is_add_only_equilibrium(game, profile), naive_ae);
    EXPECT_EQ(is_swap_equilibrium(game, profile), naive_se);
  }
}

TEST(DeviationEngine, DistanceCachesSurviveOwnershipOnlyMutations) {
  // A double-ownership add/remove changes who pays, not the topology: the
  // engine must keep distances identical (and, per the invalidation
  // contract, may keep the caches warm).
  Rng rng(707);
  const Game game = random_game(0, 6, rng);
  StrategyProfile profile = random_profile(game, rng, 0.2);
  int owner = -1, target = -1;
  for (int u = 0; u < 6 && owner < 0; ++u)
    for (int v = 0; v < 6 && owner < 0; ++v)
      if (u != v && profile.buys(u, v) && !profile.buys(v, u)) {
        owner = u;
        target = v;
      }
  ASSERT_GE(owner, 0);
  DeviationEngine engine(game, profile);
  const double before = engine.distance_cost(target);
  engine.apply_move(target, {MoveType::kAdd, -1, owner});  // double-own
  EXPECT_DOUBLE_EQ(engine.distance_cost(target), before);
  EXPECT_DOUBLE_EQ(engine.agent_cost(target),
                   agent_cost(game, engine.profile(), target));
  engine.apply_move(target, {MoveType::kDelete, owner, -1});
  EXPECT_DOUBLE_EQ(engine.distance_cost(target), before);
  EXPECT_TRUE(engine.profile() == profile);
}

TEST(DeviationEngine, BatchedSetStrategiesMatchesSequentialSetStrategy) {
  // The round-commit batch apply must land on the same profile, hash,
  // adjacency and costs as a sequence of set_strategy calls -- only the
  // epoch accounting is batched (at most one bump per batch).
  Rng rng(809);
  for (int round = 0; round < 8; ++round) {
    const int n = 5 + static_cast<int>(rng.uniform_below(4));
    const Game game = random_game(round % 3, n, rng);
    const StrategyProfile profile = random_profile(game, rng, 0.3);
    DeviationEngine batched(game, profile);
    DeviationEngine sequential(game, profile);

    std::vector<std::pair<int, NodeSet>> batch;
    for (int u = 0; u < n; ++u) {
      if (!rng.bernoulli(0.5)) continue;
      NodeSet next(n);
      for (int t = 0; t < n; ++t)
        if (t != u && game.can_buy(u, t) && rng.bernoulli(0.3))
          next.insert(t);
      batch.emplace_back(u, std::move(next));
    }
    batched.set_strategies(batch);
    for (const auto& [u, next] : batch) sequential.set_strategy(u, next);

    EXPECT_TRUE(batched.profile() == sequential.profile()) << round;
    EXPECT_EQ(batched.profile_hash(), sequential.profile_hash()) << round;
    for (int u = 0; u < n; ++u)
      EXPECT_EQ(batched.distance_cost(u), sequential.distance_cost(u))
          << "round " << round << " agent " << u;
  }
}

TEST(DeviationEngine, MoveConflictSetCoversTouchedEndpoints) {
  Rng rng(811);
  const Game game = random_game(0, 7, rng);
  const StrategyProfile profile = random_profile(game, rng, 0.3);
  DeviationEngine engine(game, profile);
  const int u = 2;
  NodeSet next(7);
  next.insert(0);
  next.insert(5);
  std::vector<int> conflict;
  engine.move_conflict_set(u, next, conflict);
  // Sorted, deduplicated, and exactly {u} ∪ old ∪ new.
  EXPECT_TRUE(std::is_sorted(conflict.begin(), conflict.end()));
  EXPECT_EQ(std::adjacent_find(conflict.begin(), conflict.end()),
            conflict.end());
  std::vector<int> expected{u, 0, 5};
  profile.strategy(u).for_each([&](int v) { expected.push_back(v); });
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(conflict, expected);
}

// --- row repair (edit log) -------------------------------------------------

using instrument::Counter;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Host families of the repair suite: dense 1-2 (dial kernel), dense
/// integer weights in {0..3} (dial with zero-weight edges), lazy closure
/// over real weights with zero-weight pairs (heap), euclidean (heap) and
/// tree.
constexpr int kRepairFamilies = 5;

Game repair_game(int family, int n, Rng& rng) {
  const double alpha = rng.uniform_real(0.5, 4.0);
  switch (family) {
    case 0:
      return Game(random_one_two_host(n, 0.5, rng), alpha);
    case 1:
    case 2: {
      DistanceMatrix weights(n, 0.0);
      for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v) {
          const double w =
              family == 1 ? static_cast<double>(rng.uniform_int(0, 3))
                          : (rng.bernoulli(0.2) ? 0.0
                                                : rng.uniform_real(0.5, 9.5));
          weights.set_symmetric(u, v, w);
        }
      return family == 1 ? Game(HostGraph::from_weights(std::move(weights)),
                                alpha)
                         : Game(HostGraph::from_weights_lazy(std::move(weights)),
                                alpha);
    }
    case 3:
      return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
                  alpha);
    default:
      return Game(HostGraph::from_tree(random_tree(n, rng)), alpha);
  }
}

/// Rows of `agents`, served by `engine` in the given order, must be bitwise
/// equal to a fresh engine's refill of the same profile.
void expect_rows_match_fresh(DeviationEngine& engine,
                             const std::vector<int>& agents) {
  DeviationEngine fresh(engine.game(), engine.profile());
  for (int u : agents) {
    const std::vector<double> got = engine.distances(u);
    const std::vector<double>& want = fresh.distances(u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t)
      ASSERT_EQ(bits(got[t]), bits(want[t]))
          << "agent " << u << " target " << t << ": " << got[t] << " vs "
          << want[t];
    ASSERT_EQ(bits(engine.distance_cost(u)), bits(fresh.distance_cost(u)))
        << "agent " << u;
  }
}

std::vector<int> all_agents(int n) {
  std::vector<int> agents(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) agents[static_cast<std::size_t>(u)] = u;
  return agents;
}

int random_other(int u, int n, Rng& rng) {
  int x = u;
  while (x == u) x = static_cast<int>(rng.uniform_below(n));
  return x;
}

/// A uniformly random edge agent u buys, or -1.
int random_owned(const StrategyProfile& s, int u, Rng& rng) {
  const std::vector<int> owned = s.strategy(u).to_vector();
  if (owned.empty()) return -1;
  return owned[rng.uniform_below(owned.size())];
}

/// Sparse random strategy (about two targets) so deletions keep cutting
/// bridges.
NodeSet random_strategy(int u, int n, Rng& rng) {
  NodeSet next(n);
  for (int t = 0; t < n; ++t)
    if (t != u && rng.bernoulli(2.0 / n)) next.insert(t);
  return next;
}

/// One random mutation through every public mutation path (all hosts of
/// the suite are complete, so every pair is purchasable).
void random_mutation(DeviationEngine& engine, Rng& rng) {
  const int n = engine.game().node_count();
  const StrategyProfile& s = engine.profile();
  const int u = static_cast<int>(rng.uniform_below(n));
  switch (rng.uniform_below(7)) {
    case 0:
      engine.add_buy(u, random_other(u, n, rng));
      break;
    case 1:
    case 2: {
      const int v = random_owned(s, u, rng);
      if (v >= 0) engine.remove_buy(u, v);
      break;
    }
    case 3: {
      const int v = random_owned(s, u, rng);
      const int x = random_other(u, n, rng);
      if (v >= 0 && x != v && !s.buys(u, x))
        engine.apply_move(u, {MoveType::kSwap, v, x});
      break;
    }
    case 4:
      engine.set_strategy(u, random_strategy(u, n, rng));
      break;
    case 5: {
      std::vector<std::pair<int, NodeSet>> batch;
      for (int a = 0; a < n; ++a)
        if (rng.bernoulli(0.3)) batch.emplace_back(a, random_strategy(a, n, rng));
      engine.set_strategies(batch);
      break;
    }
    default: {
      // Double-ownership toggle: flips who pays for an edge someone else
      // already buys; the topology is unchanged.
      const int v = random_other(u, n, rng);
      if (!s.buys(v, u)) break;
      if (s.buys(u, v)) engine.remove_buy(u, v);
      else engine.add_buy(u, v);
      break;
    }
  }
}

/// Toggles one built edge (a single edit and a single epoch bump): adds a
/// missing edge, or removes a solely owned one.
void toggle_one_edge(DeviationEngine& engine, Rng& rng) {
  const int n = engine.game().node_count();
  const StrategyProfile& s = engine.profile();
  for (;;) {
    const int u = static_cast<int>(rng.uniform_below(n));
    const int v = random_other(u, n, rng);
    if (!s.has_edge(u, v)) {
      engine.add_buy(u, v);
      return;
    }
    if (s.buys(u, v) && !s.buys(v, u)) {
      engine.remove_buy(u, v);
      return;
    }
  }
}

TEST(DeviationEngineRepair, RandomMutationSequencesMatchFreshEngine) {
  Rng rng(1201);
  const std::uint64_t repairs_before =
      instrument::thread_counters()[static_cast<std::size_t>(
          Counter::kEngineRowRepairs)];
  for (int family = 0; family < kRepairFamilies; ++family) {
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "family " << family << " trial " << trial);
      const int n = 8 + static_cast<int>(rng.uniform_below(24));
      const Game game = repair_game(family, n, rng);
      DeviationEngine engine(game, random_profile(game, rng, 0.05));
      for (int step = 0; step < 160; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        if (rng.bernoulli(0.01)) {
          engine.set_profile(trial % 2 == 0 ? random_profile(game, rng, 0.05)
                                            : recursive_tree_profile(game, rng));
        } else {
          random_mutation(engine, rng);
        }
        // Query all rows, a random subset, or none: rows end up 1, several
        // or many epochs stale when next served.
        std::vector<int> agents = all_agents(n);
        rng.shuffle(agents);
        const double policy = rng.uniform01();
        if (policy < 0.4) {
          expect_rows_match_fresh(engine, agents);
        } else if (policy < 0.8) {
          agents.resize(1 + rng.uniform_below(agents.size()));
          expect_rows_match_fresh(engine, agents);
        }
        if (HasFatalFailure()) return;
      }
    }
  }
  if (instrument::compiled_in()) {
    EXPECT_GT(instrument::thread_counters()[static_cast<std::size_t>(
                  Counter::kEngineRowRepairs)],
              repairs_before);
  }
}

TEST(DeviationEngineRepair, RowsRepairWithinTheLogAndRefillBeyondIt) {
  constexpr std::size_t kRepairs =
      static_cast<std::size_t>(Counter::kEngineRowRepairs);
  constexpr std::size_t kMisses =
      static_cast<std::size_t>(Counter::kEngineCacheMisses);
  Rng rng(1203);
  const int stale_epochs[] = {
      1, 2, 7, static_cast<int>(DeviationEngine::kEditLogCapacity),
      static_cast<int>(DeviationEngine::kEditLogCapacity) + 1,
      3 * static_cast<int>(DeviationEngine::kEditLogCapacity)};
  for (int family = 0; family < kRepairFamilies; ++family) {
    const int n = 20;
    const Game game = repair_game(family, n, rng);
    DeviationEngine engine(game, random_profile(game, rng, 0.05));
    engine.warm_distances();
    for (const int stale : stale_epochs) {
      SCOPED_TRACE(::testing::Message()
                   << "family " << family << " stale " << stale);
      for (int k = 0; k < stale; ++k) toggle_one_edge(engine, rng);
      const instrument::CounterArray before = instrument::thread_counters();
      expect_rows_match_fresh(engine, all_agents(n));
      if (HasFatalFailure()) return;
      if (!instrument::compiled_in()) continue;
      const instrument::CounterArray after = instrument::thread_counters();
      // One edit per epoch: the log covers exactly kEditLogCapacity epochs.
      const bool covered =
          stale <= static_cast<int>(DeviationEngine::kEditLogCapacity);
      EXPECT_EQ(after[kRepairs] - before[kRepairs],
                covered ? static_cast<std::uint64_t>(n) : 0u);
      // The fresh engine refills its n rows; the stale one only when the
      // log no longer covers its rows.
      EXPECT_EQ(after[kMisses] - before[kMisses],
                static_cast<std::uint64_t>(covered ? n : 2 * n));
    }
  }
}

TEST(DeviationEngineRepair, BridgeDeletionDisconnectsAndReconnects) {
  Rng rng(1205);
  for (int family = 0; family < kRepairFamilies; ++family) {
    SCOPED_TRACE(::testing::Message() << "family " << family);
    const int n = 16;
    const Game game = repair_game(family, n, rng);
    // A recursive tree: every built edge is a bridge.
    DeviationEngine engine(game, recursive_tree_profile(game, rng));
    engine.warm_distances();
    for (int round = 0; round < 6; ++round) {
      const int u = 1 + static_cast<int>(rng.uniform_below(n - 1));
      const int v = random_owned(engine.profile(), u, rng);
      ASSERT_GE(v, 0);
      if (engine.profile().buys(v, u)) continue;
      engine.remove_buy(u, v);
      expect_rows_match_fresh(engine, all_agents(n));
      EXPECT_FALSE(engine.distance_cost(u) < kInf);
      EXPECT_FALSE(engine.distances(u)[static_cast<std::size_t>(v)] < kInf);
      // Reconnect across the cut through a different edge when one exists.
      const std::vector<double> side = engine.distances(u);
      int x = -1;
      for (int t = 0; t < n && x < 0; ++t)
        if (t != v && !(side[static_cast<std::size_t>(t)] < kInf)) x = t;
      engine.add_buy(u, x >= 0 ? x : v);
      expect_rows_match_fresh(engine, all_agents(n));
      EXPECT_TRUE(engine.distance_cost(u) < kInf);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DeviationEngineRepair, DoubleOwnershipTogglesDoNotLog) {
  Rng rng(1207);
  const int n = 14;
  const Game game = repair_game(0, n, rng);
  DeviationEngine engine(game, random_profile(game, rng, 0.1));
  int owner = -1, target = -1;
  for (int u = 0; u < n && owner < 0; ++u)
    for (int v = 0; v < n && owner < 0; ++v)
      if (u != v && engine.profile().buys(u, v) &&
          !engine.profile().buys(v, u)) {
        owner = u;
        target = v;
      }
  ASSERT_GE(owner, 0);
  engine.warm_distances();
  const std::vector<double> before = engine.distances_warm(0);
  // More toggles than the log holds: if they logged, the log would overflow
  // and the next topology edit would refill every row.
  for (std::size_t k = 0; k < DeviationEngine::kEditLogCapacity; ++k) {
    engine.add_buy(target, owner);
    engine.remove_buy(target, owner);
  }
  // No epoch bump either: the warm rows are still served (and unchanged).
  EXPECT_EQ(engine.distances_warm(0), before);
  engine.remove_buy(owner, target);
  const instrument::CounterArray before_counters =
      instrument::thread_counters();
  for (int u = 0; u < n; ++u) engine.distances(u);
  const instrument::CounterArray after_counters =
      instrument::thread_counters();
  if (instrument::compiled_in()) {
    constexpr std::size_t kMisses =
        static_cast<std::size_t>(Counter::kEngineCacheMisses);
    constexpr std::size_t kRepairs =
        static_cast<std::size_t>(Counter::kEngineRowRepairs);
    EXPECT_EQ(after_counters[kMisses], before_counters[kMisses]);
    EXPECT_EQ(after_counters[kRepairs] - before_counters[kRepairs],
              static_cast<std::uint64_t>(n));
  }
  expect_rows_match_fresh(engine, all_agents(n));
}

/// Restores the default pool width on scope exit (also on a failed ASSERT).
class ThreadGuard {
 public:
  ThreadGuard() : saved_(default_thread_count()) {}
  ~ThreadGuard() { set_default_thread_count(saved_); }

 private:
  std::size_t saved_;
};

TEST(DeviationEngineRepair, WarmDistancesByteIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  Rng rng(1209);
  for (int family = 0; family < kRepairFamilies; ++family) {
    SCOPED_TRACE(::testing::Message() << "family " << family);
    const int n = 40;
    const Game game = repair_game(family, n, rng);
    const StrategyProfile start = random_profile(game, rng, 0.05);
    DeviationEngine serial(game, start);
    DeviationEngine pooled(game, start);
    // Warmed by its single-agent scans (warm_for_scan) instead.
    DeviationEngine scanned(game, start);
    Rng serial_rng(77 + family), pooled_rng(77 + family),
        scanned_rng(77 + family);
    for (int step = 0; step < 40; ++step) {
      random_mutation(serial, serial_rng);
      random_mutation(pooled, pooled_rng);
      random_mutation(scanned, scanned_rng);
      set_default_thread_count(1);
      serial.warm_distances();
      set_default_thread_count(8);
      pooled.warm_distances();
      const int v = step % n;
      set_default_thread_count(step % 2 == 0 ? 1 : 4);
      const SingleMoveResult move = scanned.best_single_move(v);
      for (const DeviationEngine* batch : {&serial, &pooled}) {
        const SingleMoveResult want = batch->best_single_move_warm(v);
        expect_move_eq(move, want, true);
        EXPECT_EQ(bits(move.cost), bits(want.cost)) << "step " << step;
        EXPECT_EQ(bits(move.current_cost), bits(want.current_cost));
      }
      for (int u = 0; u < n; ++u) {
        const std::vector<double>& a = serial.distances_warm(u);
        for (const DeviationEngine* other : {&pooled, &scanned}) {
          const std::vector<double>& b = other->distances_warm(u);
          ASSERT_EQ(a.size(), b.size());
          for (std::size_t t = 0; t < a.size(); ++t)
            ASSERT_EQ(bits(a[t]), bits(b[t]))
                << "step " << step << " agent " << u;
          ASSERT_EQ(bits(serial.distance_cost_warm(u)),
                    bits(other->distance_cost_warm(u)));
        }
      }
    }
  }
}

// --- single-move scans: memo, four-target passes, O(1) floor ---------------

/// Host families of the scan suite: dense 1-2 (dial), dense integer weights
/// in {0..3} (dial, zero-weight edges), dense integers in [1, 9], euclidean
/// and tree.  The first three sum exactly in doubles.
constexpr int kScanFamilies = 5;

bool scan_family_exact(int family) { return family < 3; }

HostGraph scan_host(int family, int n, Rng& rng) {
  switch (family) {
    case 0:
      return random_one_two_host(n, 0.5, rng);
    case 1: {
      DistanceMatrix weights(n, 0.0);
      for (int u = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v)
          weights.set_symmetric(u, v,
                                static_cast<double>(rng.uniform_int(0, 3)));
      return HostGraph::from_weights(std::move(weights));
    }
    case 2:
      return random_integer_host(n, rng);
    case 3:
      return HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0);
    default:
      return HostGraph::from_tree(random_tree(n, rng));
  }
}

/// Round-robin best-single-move dynamics from `start`, stopped `short_by`
/// moves before the run ends (0 = the final, usually converged, profile).
StrategyProfile settled_profile(const Game& game, const StrategyProfile& start,
                                std::uint64_t short_by) {
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.record_steps = false;
  const DynamicsResult full = run_dynamics(game, start, options);
  if (short_by == 0 || full.moves <= short_by) return full.final_profile;
  options.max_moves = full.moves - short_by;
  return run_dynamics(game, start, options).final_profile;
}

void expect_scan_matches(const SingleMoveResult& from_engine,
                         const SingleMoveResult& from_naive, bool exact) {
  expect_move_eq(from_engine, from_naive, exact);
  if (!exact) return;
  EXPECT_EQ(bits(from_engine.cost), bits(from_naive.cost));
  EXPECT_EQ(bits(from_engine.current_cost), bits(from_naive.current_cost));
}

/// Every scan family and every has_improving_* predicate of a fresh engine
/// against the naive scans: bitwise on exact hosts, 1e-12 otherwise.
void expect_scans_match_naive(const Game& game, const StrategyProfile& s,
                              bool exact) {
  DeviationEngine engine(game, s);
  for (int u = 0; u < game.node_count(); ++u) {
    SCOPED_TRACE(::testing::Message() << "agent " << u);
    const SingleMoveResult single = naive_best_single_move(game, s, u);
    const SingleMoveResult addition = naive_best_addition(game, s, u);
    const SingleMoveResult swap = naive_best_swap(game, s, u);
    expect_scan_matches(engine.best_single_move(u), single, exact);
    expect_scan_matches(engine.best_addition(u), addition, exact);
    expect_scan_matches(engine.best_swap(u), swap, exact);
    EXPECT_EQ(engine.has_improving_single_move(u), single.improved);
    EXPECT_EQ(engine.has_improving_addition(u), addition.improved);
    EXPECT_EQ(engine.has_improving_swap(u), swap.improved);
  }
}

std::uint64_t floor_prunes() {
  return instrument::thread_counters()[static_cast<std::size_t>(
      Counter::kEngineScanFloorPrunes)];
}

TEST(DeviationEngineScan, NearEquilibriumScansMatchNaive) {
  const std::uint64_t prunes_before = floor_prunes();
  Rng rng(1401);
  for (int family = 0; family < kScanFamilies; ++family) {
    const int n = 16 + static_cast<int>(rng.uniform_below(33));  // [16, 48]
    const HostGraph host = scan_host(family, n, rng);
    const double n_real = static_cast<double>(n);
    // Game requires alpha > 0; 2^-10 stands in for "edges are free".
    for (const double alpha : {0x1p-10, 0.5, n_real / 4.0, n_real}) {
      const Game game(host, alpha);
      const StrategyProfile start = random_profile(game, rng, 0.05);
      for (const std::uint64_t short_by : {0u, 3u}) {
        SCOPED_TRACE(::testing::Message()
                     << "family " << family << " n " << n << " alpha "
                     << alpha << " short_by " << short_by);
        expect_scans_match_naive(game, settled_profile(game, start, short_by),
                                 scan_family_exact(family));
        if (HasFailure()) return;
      }
    }
  }
  if (instrument::compiled_in()) {
    EXPECT_GT(floor_prunes(), prunes_before);
  }
}

TEST(DeviationEngineScan, OwnershipBridgeAndDisconnectedProfilesMatchNaive) {
  const std::uint64_t prunes_before = floor_prunes();
  Rng rng(1403);
  for (int family = 0; family < kScanFamilies; ++family) {
    const int n = 16 + static_cast<int>(rng.uniform_below(17));  // [16, 32]
    const HostGraph host = scan_host(family, n, rng);
    const bool exact = scan_family_exact(family);
    for (const double alpha : {0.5, static_cast<double>(n) / 4.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "family " << family << " n " << n << " alpha " << alpha);
      const Game game(host, alpha);
      // Bridge-only: every built edge of a recursive tree is a bridge.
      const StrategyProfile tree = recursive_tree_profile(game, rng);
      expect_scans_match_naive(game, tree, exact);
      // Forced double ownership on a settled profile.
      StrategyProfile doubled =
          settled_profile(game, random_profile(game, rng, 0.1), 0);
      for (int u = 0; u < n; ++u)
        for (int v = 0; v < n; ++v)
          if (u != v && doubled.buys(u, v) && rng.bernoulli(0.4))
            doubled.add_buy(v, u);
      expect_scans_match_naive(game, doubled, exact);
      // Disconnected: drop one solely owned tree edge (S_u = inf for all).
      StrategyProfile cut = tree;
      for (int u = 0; u < n; ++u) {
        const int v = random_owned(cut, u, rng);
        if (v >= 0 && !cut.buys(v, u)) {
          cut.remove_buy(u, v);
          break;
        }
      }
      ASSERT_FALSE(social_cost(game, cut) < kInf);
      expect_scans_match_naive(game, cut, exact);
      if (HasFailure()) return;
    }
  }
  if (instrument::compiled_in()) {
    EXPECT_GT(floor_prunes(), prunes_before);
  }
}

/// n points on a line at coordinates around 1e6, bought as a path in
/// coordinate order: the triangle inequality is tight along the line, so
/// the floor meets the sum up to rounding.
std::pair<Game, StrategyProfile> collinear_far_game(int n, Rng& rng) {
  PointSet points(n, 1);
  double at = 1e6;
  for (int i = 0; i < n; ++i) {
    points.set_coord(i, 0, at);
    at += rng.uniform_real(0.1, 3.0);
  }
  Game game(HostGraph::from_points(points, 2.0), 1.0);
  StrategyProfile path(n);
  for (int i = 0; i + 1 < n; ++i) path.add_buy(i, i + 1);
  return {std::move(game), std::move(path)};
}

TEST(DeviationEngineScan, AdditionFloorNeverExceedsTheComputedSum) {
  Rng rng(1405);
  const int n = 40;
  std::vector<std::pair<Game, StrategyProfile>> cases;
  PointSet far_points(n, 2);
  for (int i = 0; i < n; ++i)
    for (int axis = 0; axis < 2; ++axis)
      far_points.set_coord(i, axis, 1e6 + rng.uniform_real(0.0, 100.0));
  const std::vector<Game> games = {
      Game(random_one_two_host(n, 0.5, rng), 1.0),             // dense, dial
      Game(random_metric_host(n, rng), 1.0),                   // dense, real
      repair_game(2, n, rng),                                  // lazy closure
      Game(HostGraph::from_points(uniform_points(n, 3, 100.0, rng), 2.0),
           1.0),                                               // euclidean
      Game(HostGraph::from_points(far_points, 2.0), 1.0),      // near 1e6
      Game(HostGraph::from_tree(random_tree(n, rng)), 1.0)};   // tree
  for (const Game& game : games) {
    cases.emplace_back(game, random_profile(game, rng, 0.05));
    cases.emplace_back(game, recursive_tree_profile(game, rng));
  }
  cases.push_back(collinear_far_game(n, rng));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Game& game = cases[c].first;
    DeviationEngine engine(game, cases[c].second);
    for (int u = 0; u < n; ++u)
      for (int x = 0; x < n; ++x) {
        if (!game.can_buy(u, x)) continue;
        const double floor = DeviationEngine::addition_floor(
            engine.distance_cost(u),
            engine.distances(u)[static_cast<std::size_t>(x)],
            game.weight(u, x), n);
        ASSERT_LE(floor, engine.addition_distance_cost(u, x))
            << "case " << c << " agent " << u << " target " << x;
      }
  }
  // A disconnected agent (S_u = inf) is never pruned.
  EXPECT_EQ(DeviationEngine::addition_floor(kInf, 3.0, 1.0, 8), -kInf);
}

TEST(DeviationEngineScan, WarmProposalsByteIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  Rng rng(1407);
  for (int family = 0; family < kScanFamilies; ++family) {
    SCOPED_TRACE(::testing::Message() << "family " << family);
    const int n = 40;
    const Game game(scan_host(family, n, rng), 2.0);
    const StrategyProfile start = random_profile(game, rng, 0.05);
    for (const std::uint64_t short_by : {0u, 5u, 40u}) {
      DeviationEngine engine(game, settled_profile(game, start, short_by));
      engine.warm_distances();
      const DeviationEngine& warm = engine;
      DynamicsOptions options;
      options.rule = MoveRule::kBestSingleMove;
      const auto rule = make_move_rule(options);
      // The parallel-MGM proposal step: one writer per slot.
      const auto propose_all = [&](std::size_t threads) {
        set_default_thread_count(threads);
        std::vector<Proposal> out(static_cast<std::size_t>(n));
        parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t u) {
          out[u] = rule->propose_warm(warm, static_cast<int>(u));
        });
        return out;
      };
      const std::vector<Proposal> serial = propose_all(1);
      const std::vector<Proposal> pooled = propose_all(4);
      for (int u = 0; u < n; ++u) {
        const Proposal& a = serial[static_cast<std::size_t>(u)];
        const Proposal& b = pooled[static_cast<std::size_t>(u)];
        ASSERT_EQ(a.improving, b.improving) << "agent " << u;
        ASSERT_TRUE(a.strategy == b.strategy) << "agent " << u;
        ASSERT_EQ(bits(a.old_cost), bits(b.old_cost)) << "agent " << u;
        ASSERT_EQ(bits(a.new_cost), bits(b.new_cost)) << "agent " << u;
      }
    }
  }
}

// --- warm passes: where stale rows are brought up to date ------------------

std::uint64_t counter(Counter c) {
  return instrument::thread_counters()[static_cast<std::size_t>(c)];
}

/// A euclidean host large enough (n >= 64) that an all-row warm pass clears
/// the pool's serial cutoff and really dispatches.
Game warm_game(int n, Rng& rng) {
  return Game(HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0),
              2.0);
}

/// Every row of `engine`, read through the const warm accessor (so nothing
/// is repaired on read), must be bitwise a fresh engine's refill.
void expect_warm_rows_match_fresh(const DeviationEngine& engine) {
  DeviationEngine fresh(engine.game(), engine.profile());
  fresh.warm_distances();
  for (int u = 0; u < engine.game().node_count(); ++u) {
    const std::vector<double>& got = engine.distances_warm(u);
    const std::vector<double>& want = fresh.distances_warm(u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t)
      ASSERT_EQ(bits(got[t]), bits(want[t])) << "agent " << u << " target "
                                             << t;
    ASSERT_EQ(bits(engine.distance_cost_warm(u)),
              bits(fresh.distance_cost_warm(u)))
        << "agent " << u;
  }
}

TEST(DeviationEngineWarm, WarmEngineDispatchesNothing) {
  const ThreadGuard guard;
  set_default_thread_count(4);
  Rng rng(1501);
  const int n = 64;
  const Game game = warm_game(n, rng);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  // A fresh engine's rows are all unfilled: the first scan fans them out.
  const std::uint64_t cold = counter(Counter::kPoolRegions);
  const SingleMoveResult first = engine.best_single_move(7);
  if (instrument::compiled_in())
    EXPECT_GE(counter(Counter::kPoolRegions) - cold, 1u);

  const std::uint64_t regions = counter(Counter::kPoolRegions);
  const std::uint64_t hits = counter(Counter::kEngineCacheHits);
  engine.warm_distances();
  engine.warm_for_scan();
  expect_scan_matches(engine.best_single_move(7), first, true);
  engine.best_addition(11);
  EXPECT_EQ(engine.has_improving_swap(11), engine.best_swap(11).improved);
  if (instrument::compiled_in()) {
    EXPECT_EQ(counter(Counter::kPoolRegions), regions);
    // A warm pass at a current epoch serves no row, so it counts no hit.
    EXPECT_EQ(counter(Counter::kEngineCacheHits), hits);
  }
}

TEST(DeviationEngineWarm, SingleScanRepairsOnTheCallingThread) {
  const ThreadGuard guard;
  set_default_thread_count(4);
  Rng rng(1503);
  const int n = 64;
  const Game game = warm_game(n, rng);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  engine.warm_distances();
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const int u = static_cast<int>(rng.uniform_below(n));
    const int v = random_owned(engine.profile(), u, rng);
    if (step % 2 == 0 || v < 0 || engine.profile().buys(v, u)) {
      int x = random_other(u, n, rng);
      while (engine.profile().has_edge(u, x)) x = random_other(u, n, rng);
      engine.add_buy(u, x);
    } else {
      engine.remove_buy(u, v);
    }
    const std::uint64_t regions = counter(Counter::kPoolRegions);
    const std::uint64_t repairs = counter(Counter::kEngineRowRepairs);
    engine.best_single_move(u);
    if (instrument::compiled_in()) {
      EXPECT_EQ(counter(Counter::kPoolRegions), regions);
      // Thread-local counters: all n repairs ran on this thread.
      EXPECT_EQ(counter(Counter::kEngineRowRepairs) - repairs,
                static_cast<std::uint64_t>(n));
    }
    expect_warm_rows_match_fresh(engine);
    if (HasFatalFailure()) return;
  }
}

TEST(DeviationEngineWarm, FullRefillsStillFanOut) {
  const ThreadGuard guard;
  set_default_thread_count(4);
  Rng rng(1507);
  const int n = 64;
  const Game game = warm_game(n, rng);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  engine.warm_distances();

  // set_profile resets the log floor: every row refills, over the pool.
  engine.set_profile(random_profile(game, rng, 0.05));
  std::uint64_t regions = counter(Counter::kPoolRegions);
  engine.best_single_move(3);
  if (instrument::compiled_in())
    EXPECT_GE(counter(Counter::kPoolRegions) - regions, 1u);
  expect_warm_rows_match_fresh(engine);
  if (HasFatalFailure()) return;

  // Rows staler than the edit log refill too.
  for (std::size_t k = 0; k <= DeviationEngine::kEditLogCapacity; ++k)
    toggle_one_edge(engine, rng);
  regions = counter(Counter::kPoolRegions);
  const std::uint64_t repairs = counter(Counter::kEngineRowRepairs);
  EXPECT_EQ(engine.has_improving_single_move(5),
            engine.best_single_move(5).improved);
  if (instrument::compiled_in()) {
    EXPECT_GE(counter(Counter::kPoolRegions) - regions, 1u);
    EXPECT_EQ(counter(Counter::kEngineRowRepairs), repairs);
  }
  expect_warm_rows_match_fresh(engine);
}

TEST(DeviationEngineWarm, SetStrategiesInvalidatesTheWarmEpoch) {
  const ThreadGuard guard;
  set_default_thread_count(4);
  Rng rng(1509);
  const int n = 64;
  const Game game = warm_game(n, rng);
  DeviationEngine engine(game, random_profile(game, rng, 0.05));
  engine.warm_distances();

  // A batch that changes the built topology: the old warm epoch is gone,
  // and the next warm pass brings every row current again.
  std::vector<std::pair<int, NodeSet>> batch;
  for (int u = 0; u < n; u += 9) {
    NodeSet next = engine.profile().strategy(u);
    int x = random_other(u, n, rng);
    while (engine.profile().has_edge(u, x)) x = random_other(u, n, rng);
    next.insert(x);
    batch.emplace_back(u, std::move(next));
  }
  engine.set_strategies(batch);
  EXPECT_THROW(engine.distances_warm(0), ContractViolation);
  const std::uint64_t repairs = counter(Counter::kEngineRowRepairs);
  engine.warm_for_scan();
  if (instrument::compiled_in())
    EXPECT_EQ(counter(Counter::kEngineRowRepairs) - repairs,
              static_cast<std::uint64_t>(n));
  expect_warm_rows_match_fresh(engine);
  if (HasFatalFailure()) return;
  DeviationEngine fresh(game, engine.profile());
  for (int u = 0; u < n; u += 13)
    expect_scan_matches(engine.best_single_move_warm(u),
                        fresh.best_single_move(u), true);

  // The same batch again changes nothing: the warm epoch stays current.
  engine.set_strategies(batch);
  const std::uint64_t regions = counter(Counter::kPoolRegions);
  engine.warm_distances();
  if (instrument::compiled_in())
    EXPECT_EQ(counter(Counter::kPoolRegions), regions);
  EXPECT_NO_THROW(engine.distances_warm(0));
}

}  // namespace
}  // namespace gncg
