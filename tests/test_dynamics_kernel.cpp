// Tests for the dynamics kernel's state and orchestration layers:
// incremental Zobrist hashing vs the from-scratch reference, hashed cycle
// detection vs exact full-profile comparison (differential fuzz), the
// schedulers (max_gain against a serial argmax replay oracle), the observer
// API, and the restart driver's thread-count
// determinism contract (1-vs-N byte-identical results, same probe style as
// tests/test_sweep.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/fip.hpp"
#include "core/restarts.hpp"
#include "core/transposition.hpp"
#include "constructions/cycle_instances.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

/// Restores the worker-pool width on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(default_thread_count()) {}
  ~ThreadGuard() { set_default_thread_count(saved_); }

 private:
  std::size_t saved_;
};

/// Canonical byte serialization of one restart run (the cross-thread
/// equality probe: every field that could expose execution order).
std::string run_bytes(const RestartRun& run) {
  std::ostringstream os;
  os << run.stream << '|' << run.scheduler << '|'
     << run.result.converged << '|' << run.result.cycle_found << '|'
     << run.result.cycle_start << '|' << run.result.cycle_length << '|'
     << run.result.moves << '|' << run.result.rounds << '|'
     << run.cycle_verified << '|';
  const StrategyProfile& profile = run.result.final_profile;
  for (int u = 0; u < profile.node_count(); ++u) {
    os << 'a' << u << ':';
    profile.strategy(u).for_each([&](int v) { os << v << ','; });
  }
  os << '|' << run.result.step_gains.count() << '|'
     << run.result.step_gains.sum();
  return os.str();
}

/// Canonical byte serialization of one dynamics run's trajectory: counts,
/// final profile and every recorded step, costs as raw IEEE bits.
std::string dynamics_bytes(const DynamicsResult& result) {
  std::ostringstream os;
  os << result.converged << '|' << result.cycle_found << '|' << result.moves
     << '|' << result.rounds << '|';
  const auto write_set = [&](const NodeSet& set) {
    set.for_each([&](int v) { os << v << ','; });
    os << ';';
  };
  for (int u = 0; u < result.final_profile.node_count(); ++u)
    write_set(result.final_profile.strategy(u));
  for (const DynamicsStep& step : result.steps) {
    os << '|' << step.round << ':' << step.agent << ':'
       << std::bit_cast<std::uint64_t>(step.old_cost) << ':'
       << std::bit_cast<std::uint64_t>(step.new_cost) << ':';
    write_set(step.old_strategy);
    write_set(step.new_strategy);
  }
  return os.str();
}

// --- incremental Zobrist hashing ------------------------------------------

TEST(Zobrist, IncrementalEngineHashMatchesScratchReference) {
  Rng rng(4001);
  const Game game(random_metric_host(7, rng), 1.0);
  DeviationEngine engine(game, random_profile(game, rng));
  EXPECT_EQ(engine.profile_hash(), zobrist_profile_hash(engine.profile()));

  const int n = game.node_count();
  for (int step = 0; step < 400; ++step) {
    const int u = static_cast<int>(rng.uniform_below(n));
    int v = static_cast<int>(rng.uniform_below(n));
    if (v == u) v = (v + 1) % n;
    switch (rng.uniform_below(4)) {
      case 0: engine.add_buy(u, v); break;
      case 1: engine.remove_buy(u, v); break;
      case 2: {
        NodeSet strategy(n);
        for (int t = 0; t < n; ++t)
          if (t != u && rng.bernoulli(0.3)) strategy.insert(t);
        engine.set_strategy(u, std::move(strategy));
        break;
      }
      default: engine.set_profile(random_profile(game, rng)); break;
    }
    ASSERT_EQ(engine.profile_hash(), zobrist_profile_hash(engine.profile()))
        << "mutation step " << step;
  }
}

TEST(Zobrist, DoubleOwnershipChangesTheHash) {
  // Ownership-only mutations leave the topology (and distance caches)
  // alone but MUST change the hash: the profiles differ.
  Rng rng(4003);
  const Game game(random_metric_host(5, rng), 1.0);
  StrategyProfile profile(5);
  profile.add_buy(0, 1);
  DeviationEngine engine(game, profile);
  const std::uint64_t before = engine.profile_hash();
  engine.add_buy(1, 0);  // double ownership: same topology, new profile
  EXPECT_NE(engine.profile_hash(), before);
  EXPECT_EQ(engine.profile_hash(), zobrist_profile_hash(engine.profile()));
  engine.remove_buy(1, 0);
  EXPECT_EQ(engine.profile_hash(), before);
}

// --- hashed revisit detection vs exact comparison (differential fuzz) -----

/// Exact reference detector: compares against every previous profile.
std::pair<std::size_t, std::size_t> naive_first_revisit(
    const std::vector<StrategyProfile>& trajectory) {
  for (std::size_t j = 1; j < trajectory.size(); ++j)
    for (std::size_t i = 0; i < j; ++i)
      if (trajectory[i] == trajectory[j]) return {i, j};
  return {TranspositionTable::npos, TranspositionTable::npos};
}

TEST(Transposition, HashedRevisitAgreesWithExactComparison) {
  Rng rng(4007);
  for (int trial = 0; trial < 12; ++trial) {
    const Game game(trial % 2 == 0
                        ? random_metric_host(6, rng)
                        : HostGraph::from_points(theorem17_points(), 1.0),
                    1.0);
    DynamicsOptions options;
    options.rule = trial % 2 == 0 ? MoveRule::kBestSingleMove
                                  : MoveRule::kBestResponse;
    options.scheduler = SchedulerKind::kRandomOrder;
    options.max_moves = 60;
    options.detect_cycles = false;  // record the raw trajectory
    options.seed = rng();
    const StrategyProfile start = random_profile(game, rng);
    const auto run = run_dynamics(game, start, options);

    // Reconstruct the visited profile sequence.
    std::vector<StrategyProfile> trajectory{start};
    for (const auto& step : run.steps) {
      StrategyProfile next = trajectory.back();
      next.set_strategy(step.agent, step.new_strategy);
      trajectory.push_back(std::move(next));
    }

    // Hashed detector over the same sequence: log each step's pre-move
    // strategy, then probe and record the state it leads to.
    TranspositionTable table;
    std::size_t hashed_first = TranspositionTable::npos;
    std::size_t hashed_prev = TranspositionTable::npos;
    for (std::size_t j = 0; j < trajectory.size(); ++j) {
      if (j > 0)
        table.log_move(run.steps[j - 1].agent, run.steps[j - 1].old_strategy);
      const std::uint64_t hash = zobrist_profile_hash(trajectory[j]);
      const std::size_t slot = table.find(hash, trajectory[j]);
      if (slot != TranspositionTable::npos) {
        hashed_first = j;
        hashed_prev = static_cast<std::size_t>(table.value(slot));
        break;
      }
      table.insert(hash, j);
    }

    const auto [naive_prev, naive_first] = naive_first_revisit(trajectory);
    EXPECT_EQ(hashed_first, naive_first) << "trial " << trial;
    EXPECT_EQ(hashed_prev, naive_prev) << "trial " << trial;

    // And the kernel's own detection stops at exactly that revisit.
    DynamicsOptions detecting = options;
    detecting.detect_cycles = true;
    const auto detected = run_dynamics(game, start, detecting);
    if (naive_first != TranspositionTable::npos &&
        naive_first <= options.max_moves) {
      EXPECT_TRUE(detected.cycle_found) << "trial " << trial;
      EXPECT_EQ(detected.moves, naive_first) << "trial " << trial;
      EXPECT_EQ(detected.cycle_start, naive_prev) << "trial " << trial;
    } else {
      EXPECT_FALSE(detected.cycle_found) << "trial " << trial;
    }
  }
}

/// A strategy buying exactly {v} (nothing when v < 0).
NodeSet single_buy(int n, int v) {
  NodeSet strategy(n);
  if (v >= 0) strategy.insert(v);
  return strategy;
}

TEST(Transposition, ForcedCollisionsConfirmOnlyTheEqualState) {
  // Three distinct states under one made-up hash: only the equal one may
  // be reported, and every rejected comparison counts as a collision.
  const int n = 5;
  const std::uint64_t kForced = 0xfeedULL;
  const instrument::ThreadFrame frame;
  TranspositionTable table;
  StrategyProfile profile(n);
  profile.set_strategy(0, single_buy(n, 1));

  // State A, then B (agent 2 buys 3), then C (agent 0 switches 1 -> 4).
  EXPECT_EQ(table.find(kForced, profile), TranspositionTable::npos);
  const std::size_t a = table.insert(kForced, 10);
  table.log_move(2, profile.strategy(2));
  profile.set_strategy(2, single_buy(n, 3));
  EXPECT_EQ(table.find(kForced, profile), TranspositionTable::npos);
  const std::size_t b = table.insert(kForced, 11);
  table.log_move(0, profile.strategy(0));
  profile.set_strategy(0, single_buy(n, 4));
  EXPECT_EQ(table.find(kForced, profile), TranspositionTable::npos);
  const std::size_t c = table.insert(kForced, 12);
  EXPECT_EQ(table.collisions(), 0u + 1u + 2u);

  // Agent 0 switches back: the profile equals B again (agent 0 appears
  // twice in B's log suffix; only its first, pre-move entry is compared).
  table.log_move(0, profile.strategy(0));
  profile.set_strategy(0, single_buy(n, 1));
  EXPECT_EQ(table.find(kForced, profile), b);
  EXPECT_EQ(table.value(b), 11u);
  EXPECT_EQ(table.collisions(), 3u + 1u);  // A rejected, B confirmed
  // A different hash never compares at all.
  EXPECT_EQ(table.find(kForced + 1, profile), TranspositionTable::npos);

  // Two-move rounds (distinct agents 0 and 2): E is new, F equals B.
  table.log_move(0, profile.strategy(0));
  table.log_move(2, profile.strategy(2));
  profile.set_strategy(0, single_buy(n, 4));
  profile.set_strategy(2, single_buy(n, -1));
  EXPECT_EQ(table.find(kForced, profile), TranspositionTable::npos);
  EXPECT_EQ(table.collisions(), 4u + 3u);  // A, B and C rejected
  table.insert(kForced, 13);
  table.log_move(2, profile.strategy(2));
  table.log_move(0, profile.strategy(0));
  profile.set_strategy(2, single_buy(n, 3));
  profile.set_strategy(0, single_buy(n, 1));
  EXPECT_EQ(table.find(kForced, profile), b);
  EXPECT_EQ(table.collisions(), 7u + 1u);  // A rejected, B confirmed
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.value(a), 10u);
  EXPECT_EQ(table.value(c), 12u);

  if (instrument::compiled_in()) {
    const auto delta = frame.delta();
    const auto at = [&](instrument::Counter counter) {
      return delta[static_cast<std::size_t>(counter)];
    };
    EXPECT_EQ(at(instrument::Counter::kTtCollisions), table.collisions());
    EXPECT_EQ(at(instrument::Counter::kTtProbes), 7u);
    // Every comparison is a collision or one of the two confirmed hits.
    EXPECT_EQ(at(instrument::Counter::kTtConfirms), table.collisions() + 2u);
  }
}

TEST(Transposition, ForcedCollisionsAgreeWithNaiveComparison) {
  // Random walks over a tiny state space (each agent buys nothing or one
  // of two targets), with rounds of one or two distinct movers and hashes
  // forced into three buckets: find() must return exactly the slot a
  // naive full-profile comparison picks, and count every rejection.
  Rng rng(4011);
  const int n = 4;
  for (int trial = 0; trial < 24; ++trial) {
    const instrument::ThreadFrame frame;
    TranspositionTable table;
    std::vector<StrategyProfile> recorded;
    std::vector<std::uint64_t> recorded_hash;
    std::uint64_t rejections = 0;
    std::uint64_t hits = 0;
    StrategyProfile profile(n);
    for (int round = 0; round < 40; ++round) {
      const std::uint64_t hash = zobrist_profile_hash(profile) % 3;
      std::size_t expected = TranspositionTable::npos;
      for (std::size_t i = 0; i < recorded.size(); ++i) {
        if (recorded_hash[i] != hash) continue;
        if (recorded[i] == profile) {
          expected = i;
          break;
        }
        ++rejections;
      }
      const std::size_t slot = table.find(hash, profile);
      ASSERT_EQ(slot, expected) << "trial " << trial << " round " << round;
      if (slot == TranspositionTable::npos) {
        EXPECT_EQ(table.insert(hash, static_cast<std::uint64_t>(round)),
                  recorded.size());
        recorded.push_back(profile);
        recorded_hash.push_back(hash);
      } else {
        ++hits;
      }

      // Next round: one or two distinct movers, each to a new strategy.
      const int first = static_cast<int>(rng.uniform_below(n));
      std::vector<int> movers{first};
      if (rng.bernoulli(0.5))
        movers.push_back((first + 1 + static_cast<int>(rng.uniform_below(
                                          n - 1))) % n);
      for (int agent : movers) table.log_move(agent, profile.strategy(agent));
      for (int agent : movers) {
        NodeSet next = profile.strategy(agent);
        while (next == profile.strategy(agent)) {
          const int choice = static_cast<int>(rng.uniform_below(3));
          next = single_buy(n, choice == 0 ? -1 : (agent + choice) % n);
        }
        profile.set_strategy(agent, std::move(next));
      }
    }
    EXPECT_EQ(table.collisions(), rejections) << "trial " << trial;
    EXPECT_GT(hits, 0u) << "trial " << trial;
    if (instrument::compiled_in()) {
      const auto delta = frame.delta();
      EXPECT_EQ(delta[static_cast<std::size_t>(
                    instrument::Counter::kTtCollisions)],
                rejections);
      EXPECT_EQ(delta[static_cast<std::size_t>(
                    instrument::Counter::kTtConfirms)],
                rejections + hits);
    }
  }
}

TEST(Transposition, ParallelMgmCycleAgreesWithRoundBoundaryComparison) {
  // Multi-move rounds: the kernel's detection must stop where a naive
  // full-profile comparison over round-boundary states finds the first
  // revisit.  Best-single-move dynamics on the Conjecture 1 point set
  // cycle under parallel_mgm from some random starts.
  Rng rng(4019);
  int cycles = 0;
  int multi_move_cycles = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Game game(
        HostGraph::from_points(conjecture1_euclidean_points(), 2.0),
        0.5 + 0.25 * (trial % 8));
    DynamicsOptions options;
    options.rule = MoveRule::kBestSingleMove;
    options.scheduler = SchedulerKind::kParallelMgm;
    options.mgm_shards = 2 + trial % 3;
    options.max_moves = 300;
    options.detect_cycles = false;  // record the raw trajectory
    options.seed = rng();
    const StrategyProfile start = random_profile(game, rng);
    const auto run = run_dynamics(game, start, options);

    // Round-boundary states and the move count at each boundary.
    std::vector<StrategyProfile> states{start};
    std::vector<std::uint64_t> moves_at{0};
    for (std::size_t i = 0; i < run.steps.size(); ++i) {
      if (i == 0 || run.steps[i].round != run.steps[i - 1].round) {
        states.push_back(states.back());
        moves_at.push_back(moves_at.back());
      }
      states.back().set_strategy(run.steps[i].agent,
                                 run.steps[i].new_strategy);
      ++moves_at.back();
    }
    const auto [naive_prev, naive_first] = naive_first_revisit(states);

    DynamicsOptions detecting = options;
    detecting.detect_cycles = true;
    const auto detected = run_dynamics(game, start, detecting);
    if (naive_first != TranspositionTable::npos) {
      ++cycles;
      for (std::size_t k = naive_prev; k < naive_first; ++k)
        if (moves_at[k + 1] - moves_at[k] > 1) {
          ++multi_move_cycles;
          break;
        }
      EXPECT_TRUE(detected.cycle_found) << "trial " << trial;
      EXPECT_EQ(detected.moves, moves_at[naive_first]) << "trial " << trial;
      EXPECT_EQ(detected.cycle_start, moves_at[naive_prev])
          << "trial " << trial;
      EXPECT_EQ(detected.cycle_length,
                moves_at[naive_first] - moves_at[naive_prev])
          << "trial " << trial;
    } else {
      EXPECT_FALSE(detected.cycle_found) << "trial " << trial;
      EXPECT_EQ(detected.moves, run.moves) << "trial " << trial;
    }
  }
  // A cycle through a multi-move round, or this test exercises nothing.
  EXPECT_GT(cycles, 0);
  EXPECT_GT(multi_move_cycles, 0);
}

// --- observer API ---------------------------------------------------------

class RecordingObserver final : public StepObserver {
 public:
  void on_run_start(const DeviationEngine&) override { ++starts; }
  void on_step(const DynamicsStep& step, std::uint64_t move_index) override {
    steps.push_back(step);
    EXPECT_EQ(move_index, steps.size());
  }
  void on_run_end(const DynamicsResult& result) override {
    ++ends;
    EXPECT_EQ(result.moves, steps.size());
  }

  int starts = 0;
  int ends = 0;
  std::vector<DynamicsStep> steps;
};

TEST(Observer, StreamsEveryAppliedStepInOrder) {
  Rng rng(4019);
  const Game game(random_metric_host(6, rng), 1.0);
  RecordingObserver observer;
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.max_moves = 500;
  options.observer = &observer;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_EQ(observer.starts, 1);
  EXPECT_EQ(observer.ends, 1);
  ASSERT_EQ(observer.steps.size(), run.steps.size());
  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    EXPECT_EQ(observer.steps[i].agent, run.steps[i].agent);
    EXPECT_TRUE(observer.steps[i].new_strategy == run.steps[i].new_strategy);
  }
}

TEST(Observer, StepGainsMatchTrace) {
  Rng rng(4021);
  const Game game(random_metric_host(6, rng), 1.2);
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.max_moves = 500;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  SampleStats expected;
  for (const auto& step : run.steps)
    if (step.old_cost < kInf) expected.add(step.old_cost - step.new_cost);
  EXPECT_EQ(run.step_gains.count(), expected.count());
  EXPECT_DOUBLE_EQ(run.step_gains.sum(), expected.sum());
  EXPECT_DOUBLE_EQ(run.step_gains.max(), expected.max());
}

TEST(Observer, RecordStepsOffStillFillsGainStats) {
  Rng rng(4022);
  const Game game(random_metric_host(6, rng), 1.2);
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.max_moves = 500;
  options.record_steps = false;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_TRUE(run.steps.empty());
  if (run.moves > 0) EXPECT_GT(run.step_gains.count(), 0u);
}

// --- new schedulers -------------------------------------------------------

TEST(Schedulers, AllFiveConvergeToNashOnUnitHostHighAlpha) {
  Rng rng(4027);
  const Game game(HostGraph::unit(6), 4.0);
  for (auto scheduler :
       {SchedulerKind::kRoundRobin, SchedulerKind::kRandomOrder,
        SchedulerKind::kMaxGain, SchedulerKind::kFairnessBounded,
        SchedulerKind::kSoftmaxGain}) {
    DynamicsOptions options;
    options.scheduler = scheduler;
    options.max_moves = 3000;
    options.seed = 7;
    const auto run = run_dynamics(game, random_profile(game, rng), options);
    EXPECT_TRUE(run.converged) << "scheduler " << static_cast<int>(scheduler);
    EXPECT_TRUE(is_nash_equilibrium(game, run.final_profile));
  }
}

TEST(Schedulers, SoftmaxIsSeedDeterministic) {
  Rng start_a(4031), start_b(4031);
  Rng host_rng(4033);
  const Game game(random_metric_host(7, host_rng), 1.0);
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.scheduler = SchedulerKind::kSoftmaxGain;
  options.max_moves = 2000;
  options.seed = 99;
  const auto a = run_dynamics(game, random_profile(game, start_a), options);
  const auto b = run_dynamics(game, random_profile(game, start_b), options);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_TRUE(a.final_profile == b.final_profile);
}

// --- parallel MGM round kernel --------------------------------------------

/// Conservative touch set of one recorded step: {agent} ∪ old ∪ new (the
/// same approximation the scheduler's conflict graph uses).
std::vector<int> step_touch_set(const DynamicsStep& step) {
  std::vector<int> touch{step.agent};
  step.old_strategy.for_each([&](int v) { touch.push_back(v); });
  step.new_strategy.for_each([&](int v) { touch.push_back(v); });
  std::sort(touch.begin(), touch.end());
  touch.erase(std::unique(touch.begin(), touch.end()), touch.end());
  return touch;
}

TEST(ParallelMgm, ConvergesToNashOnUnitHostHighAlpha) {
  Rng rng(4051);
  const Game game(HostGraph::unit(6), 4.0);
  DynamicsOptions options;
  options.scheduler = SchedulerKind::kParallelMgm;
  options.max_moves = 3000;
  options.seed = 7;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_TRUE(run.converged);
  // Convergence certificate is the same as the sequential schedulers': the
  // final (empty) round proposed every agent against the final profile.
  EXPECT_TRUE(is_nash_equilibrium(game, run.final_profile));
}

TEST(ParallelMgm, CommittedRoundsHaveDisjointConflictSets) {
  Rng rng(4053);
  const Game game(random_one_two_host(24, 0.5, rng), 1.5);
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.scheduler = SchedulerKind::kParallelMgm;
  options.mgm_shards = 8;
  options.max_moves = 600;
  options.seed = 3;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  ASSERT_GT(run.moves, 0u);

  std::size_t max_batch = 0;
  for (std::size_t i = 0; i < run.steps.size();) {
    const std::uint64_t round = run.steps[i].round;
    ASSERT_GE(round, 1u);
    std::vector<int> claimed;
    std::size_t batch = 0;
    int last_agent = -1;
    for (; i < run.steps.size() && run.steps[i].round == round; ++i, ++batch) {
      const DynamicsStep& step = run.steps[i];
      // Commit order within a round is ascending agent id.
      EXPECT_GT(step.agent, last_agent) << "round " << round;
      last_agent = step.agent;
      // Every committed move improves against the round's start profile.
      EXPECT_LT(step.new_cost, step.old_cost) << "round " << round;
      // Independence: the step's touch set is disjoint from every other
      // committed move's in the same round.
      for (int t : step_touch_set(step)) {
        EXPECT_FALSE(std::binary_search(claimed.begin(), claimed.end(), t))
            << "round " << round << " agent " << step.agent
            << " touches already-claimed node " << t;
        claimed.insert(std::lower_bound(claimed.begin(), claimed.end(), t),
                       t);
      }
    }
    max_batch = std::max(max_batch, batch);
  }
  EXPECT_EQ(max_batch, run.max_round_commits);
  // With 8 shards on 24 agents some round must have committed in parallel,
  // otherwise this test exercises nothing.
  EXPECT_GT(max_batch, 1u);
}

TEST(ParallelMgm, OneShardDegeneratesToSequentialMaxGain) {
  // kMaxGain is parallel_mgm pinned to one shard: mgm_shards must not leak
  // into it.  The oracle replays the trace and re-derives every step from a
  // serial propose() of every agent against the step's pre-move profile.
  Rng host_rng(4057);
  const Game game(random_one_two_host(12, 0.5, host_rng), 1.5);
  Rng start_rng(4061);
  const StrategyProfile start = random_profile(game, start_rng);

  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.scheduler = SchedulerKind::kMaxGain;
  options.mgm_shards = 8;
  options.max_moves = 800;
  options.seed = 17;
  const auto run = run_dynamics(game, start, options);
  EXPECT_EQ(run.max_round_commits, 1u);
  EXPECT_EQ(run.rounds, run.moves);
  ASSERT_GT(run.steps.size(), 1u);

  const auto rule = make_move_rule(options);
  DeviationEngine replay(game, start);
  // The serial max-gain choice: largest gain, ties to the smaller id.
  const auto argmax = [&](Proposal& best) {
    int chosen = -1;
    for (int u = 0; u < game.node_count(); ++u) {
      Proposal p = propose(replay, *rule, u);
      if (p.improving && (chosen < 0 || p.gain() > best.gain())) {
        chosen = u;
        best = std::move(p);
      }
    }
    return chosen;
  };
  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const DynamicsStep& step = run.steps[i];
    Proposal best;
    ASSERT_EQ(step.agent, argmax(best)) << "step " << i;
    EXPECT_TRUE(step.new_strategy == best.strategy) << "step " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(step.new_cost),
              std::bit_cast<std::uint64_t>(best.new_cost))
        << "step " << i;
    replay.set_strategy(step.agent, step.new_strategy);
  }
  EXPECT_TRUE(replay.profile() == run.final_profile);
  ASSERT_TRUE(run.converged);
  Proposal none;
  EXPECT_EQ(argmax(none), -1);  // no agent improves at the reached profile
}

/// Observer checking the round-callback contract: round indices increase by
/// one, batch sizes are >= 1 and sum to the move count.
class RoundObserver final : public StepObserver {
 public:
  void on_step(const DynamicsStep& step, std::uint64_t) override {
    EXPECT_EQ(step.round, rounds_seen + 1);
  }
  void on_round_end(std::uint64_t round_index,
                    std::size_t committed) override {
    EXPECT_EQ(round_index, rounds_seen + 1);
    EXPECT_GE(committed, 1u);
    ++rounds_seen;
    total_committed += committed;
  }

  std::uint64_t rounds_seen = 0;
  std::size_t total_committed = 0;
};

TEST(ParallelMgm, ObserverSeesRoundBatches) {
  Rng rng(4063);
  const Game game(random_one_two_host(24, 0.5, rng), 1.5);
  RoundObserver observer;
  DynamicsOptions options;
  options.rule = MoveRule::kBestSingleMove;
  options.scheduler = SchedulerKind::kParallelMgm;
  options.mgm_shards = 8;
  options.max_moves = 600;
  options.observer = &observer;
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  EXPECT_EQ(observer.total_committed, run.moves);
  EXPECT_GE(observer.rounds_seen, 1u);
}

TEST(ParallelMgm, ByteIdenticalAcrossThreadCounts) {
  // Two host kernels: a dense 1-2 host (dial) and a euclidean host (heap,
  // irrational weights).  Each is probed twice: restarts fanned out over
  // the pool (every round inside a restart then runs serially), and one
  // direct run large enough that each round's warm pass and proposal pass
  // fan out over the pool themselves.
  const ThreadGuard guard;
  constexpr auto kRegions =
      static_cast<std::size_t>(instrument::Counter::kPoolRegions);
  Rng rng(4067);
  const auto make_game = [&](bool euclidean, int n) {
    return euclidean
               ? Game(HostGraph::from_points(
                          uniform_points(n, 2, 1000.0, rng), 2.0),
                      400.0)
               : Game(random_one_two_host(n, 0.5, rng), 1.5);
  };

  RestartOptions options;
  options.restarts = 24;
  options.seed = 13;
  options.label = "test_parallel_mgm";
  options.dynamics.rule = MoveRule::kBestSingleMove;
  options.dynamics.scheduler = SchedulerKind::kParallelMgm;
  options.dynamics.mgm_shards = 8;
  options.dynamics.max_moves = 400;

  for (const bool euclidean : {false, true}) {
    SCOPED_TRACE(euclidean ? "euclidean host" : "dense host");
    const Game small = make_game(euclidean, 24);
    set_default_thread_count(1);
    const RestartReport serial = run_restarts(small, options);
    set_default_thread_count(8);
    const RestartReport parallel = run_restarts(small, options);

    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    std::size_t max_batch = 0;
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      EXPECT_EQ(run_bytes(serial.runs[i]), run_bytes(parallel.runs[i]))
          << "restart " << i;
      max_batch = std::max(max_batch, serial.runs[i].result.max_round_commits);
    }
    EXPECT_EQ(serial.converged, parallel.converged);
    EXPECT_EQ(serial.moves_to_convergence.sum(),
              parallel.moves_to_convergence.sum());
    EXPECT_GT(max_batch, 1u) << "no round batched, so no multi-move commit "
                                "was compared";

    // Direct run: n = 64 agents is above the pool's serial cutoff, so the
    // rounds themselves are the parallel work.
    const Game large = make_game(euclidean, 64);
    const StrategyProfile start = recursive_tree_profile(large, rng);
    DynamicsOptions direct = options.dynamics;
    direct.max_moves = 150;
    direct.seed = 17;
    set_default_thread_count(1);
    const DynamicsResult serial_run = run_dynamics(large, start, direct);
    set_default_thread_count(8);
    const std::uint64_t regions_before =
        instrument::thread_counters()[kRegions];
    const DynamicsResult pooled_run = run_dynamics(large, start, direct);
    EXPECT_EQ(dynamics_bytes(serial_run), dynamics_bytes(pooled_run));
    EXPECT_GT(serial_run.max_round_commits, 1u);
    // The pooled run dispatched its rounds to the pool (not serial
    // fallbacks), so the comparison covers in-round fan-out.
    if (instrument::compiled_in())
      EXPECT_GT(instrument::thread_counters()[kRegions], regions_before);
  }
}

// --- restart driver determinism (acceptance) ------------------------------

TEST(Restarts, ByteIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  Rng rng(4037);
  const Game game(random_one_two_host(16, 0.5, rng), 1.5);

  RestartOptions options;
  options.restarts = 40;
  options.seed = 11;
  options.label = "test_restarts";
  options.dynamics.rule = MoveRule::kBestSingleMove;
  options.dynamics.max_moves = 400;
  options.scheduler_cycle = {SchedulerKind::kRoundRobin,
                             SchedulerKind::kRandomOrder,
                             SchedulerKind::kSoftmaxGain};

  set_default_thread_count(1);
  const RestartReport serial = run_restarts(game, options);
  set_default_thread_count(4);
  const RestartReport parallel = run_restarts(game, options);

  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  std::vector<std::string> serial_bytes, parallel_bytes;
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    serial_bytes.push_back(run_bytes(serial.runs[i]));
    parallel_bytes.push_back(run_bytes(parallel.runs[i]));
    EXPECT_EQ(serial_bytes.back(), parallel_bytes.back()) << "restart " << i;
  }
  std::sort(serial_bytes.begin(), serial_bytes.end());
  std::sort(parallel_bytes.begin(), parallel_bytes.end());
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_EQ(serial.converged, parallel.converged);
  EXPECT_EQ(serial.moves_to_convergence.count(),
            parallel.moves_to_convergence.count());
  EXPECT_EQ(serial.moves_to_convergence.sum(),
            parallel.moves_to_convergence.sum());
}

TEST(Restarts, EngineReusePerWorkerMatchesFreshEngines) {
  Rng rng(4039);
  const Game game(random_metric_host(8, rng), 1.0);
  RestartOptions options;
  options.restarts = 12;
  options.seed = 5;
  options.label = "reuse_probe";
  options.dynamics.rule = MoveRule::kBestSingleMove;
  options.dynamics.max_moves = 500;
  const RestartReport report = run_restarts(game, options);

  // Reference: every restart from a fresh engine via the serial entry
  // point, same streams.
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    Rng stream(stream_seed("reuse_probe", i, 5));
    StrategyProfile start = make_start_profile(
        game, stream, options.start, options.extra_edge_prob);
    DynamicsOptions dynamics = options.dynamics;
    dynamics.seed = stream();
    const auto reference = run_dynamics(game, std::move(start), dynamics);
    EXPECT_EQ(report.runs[i].result.moves, reference.moves) << i;
    EXPECT_TRUE(report.runs[i].result.final_profile ==
                reference.final_profile)
        << i;
  }
}

TEST(Restarts, SampleEquilibriaIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  Rng rng(4043);
  const Game game(random_metric_host(6, rng), 1.0);
  SamplingOptions options;
  options.attempts = 24;
  options.seed = 99;

  set_default_thread_count(1);
  const auto serial = sample_equilibria(game, options);
  set_default_thread_count(4);
  const auto parallel = sample_equilibria(game, options);

  ASSERT_EQ(serial.profiles.size(), parallel.profiles.size());
  for (std::size_t i = 0; i < serial.profiles.size(); ++i) {
    EXPECT_TRUE(serial.profiles[i] == parallel.profiles[i]) << i;
    EXPECT_EQ(serial.social_costs[i], parallel.social_costs[i]) << i;
  }
}

TEST(Restarts, CycleWitnessIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  const Game game(HostGraph::from_points(theorem17_points(), 1.0), 1.0);
  Rng outer(8);
  const std::uint64_t seed = outer();

  set_default_thread_count(1);
  const auto serial = search_best_response_cycle(game, 24, seed);
  set_default_thread_count(4);
  const auto parallel = search_best_response_cycle(game, 24, seed);

  ASSERT_TRUE(serial.cycle_found);
  ASSERT_TRUE(parallel.cycle_found);
  EXPECT_TRUE(serial.cycle_start == parallel.cycle_start);
  ASSERT_EQ(serial.cycle.size(), parallel.cycle.size());
  for (std::size_t i = 0; i < serial.cycle.size(); ++i) {
    EXPECT_EQ(serial.cycle[i].agent, parallel.cycle[i].agent);
    EXPECT_TRUE(serial.cycle[i].new_strategy == parallel.cycle[i].new_strategy);
  }
  EXPECT_TRUE(verify_improvement_cycle(game, serial.cycle_start, serial.cycle,
                                       /*require_best_response=*/true));
}

TEST(Restarts, ObserverAndUnverifiedCyclesAreRejectedByContract) {
  Rng rng(4049);
  const Game game(random_metric_host(5, rng), 1.0);
  RecordingObserver observer;
  RestartOptions options;
  options.restarts = 2;
  options.dynamics.observer = &observer;
  EXPECT_THROW(run_restarts(game, options), ContractViolation);

  RestartOptions no_steps;
  no_steps.restarts = 2;
  no_steps.verify_cycles = true;
  no_steps.dynamics.record_steps = false;
  EXPECT_THROW(run_restarts(game, no_steps), ContractViolation);
}

}  // namespace
}  // namespace gncg
