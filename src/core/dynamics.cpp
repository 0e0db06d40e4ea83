#include "core/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/transposition.hpp"

namespace gncg {

DynamicsResult run_dynamics(const Game& game, StrategyProfile start,
                            const DynamicsOptions& options) {
  GNCG_CHECK(start.node_count() == game.node_count(),
             "profile/game size mismatch");
  DeviationEngine engine(game, std::move(start));
  return run_dynamics(engine, options);
}

DynamicsResult run_dynamics(DeviationEngine& engine,
                            const DynamicsOptions& options) {
  Rng rng(options.seed);
  const auto rule = make_move_rule(options);
  const auto scheduler = make_scheduler(options, engine.game().node_count());

  DynamicsResult result;
  TranspositionTable visited;
  if (options.detect_cycles) visited.insert(engine.profile_hash(), 0);
  if (options.observer != nullptr) options.observer->on_run_start(engine);

  // Round-commit loop: the scheduler returns a batch of activations (one
  // per round for sequential schedulers, a non-conflicting set under
  // parallel_mgm) that commits atomically -- a single engine epoch bump for
  // multi-move batches -- with revisit detection at round granularity.  For
  // single-activation rounds this is the historical per-move loop, move for
  // move and epoch bump for epoch bump.
  std::uint64_t round_index = 0;
  std::vector<std::pair<int, NodeSet>> batch;
  for (bool done = false; !done;) {
    std::vector<Activation> round = scheduler->next_round(engine, *rule, rng);
    if (round.empty()) {
      result.converged = true;
      break;
    }
    ++round_index;

    // Record the steps against the round's start profile, then commit.
    std::vector<DynamicsStep> steps;
    steps.reserve(round.size());
    for (Activation& activation : round) {
      DynamicsStep step;
      step.agent = activation.agent;
      step.old_strategy = engine.profile().strategy(activation.agent);
      step.new_strategy = activation.proposal.strategy;
      step.old_cost = activation.proposal.old_cost;
      step.new_cost = activation.proposal.new_cost;
      step.round = round_index;
      if (options.detect_cycles)
        visited.log_move(step.agent, step.old_strategy);
      steps.push_back(std::move(step));
    }
    if (round.size() == 1) {
      engine.set_strategy(round[0].agent,
                          std::move(round[0].proposal.strategy));
    } else {
      batch.clear();
      for (Activation& activation : round)
        batch.emplace_back(activation.agent,
                           std::move(activation.proposal.strategy));
      engine.set_strategies(batch);
    }

    result.max_round_commits = std::max(result.max_round_commits,
                                        steps.size());
    for (DynamicsStep& step : steps) {
      ++result.moves;
      if (step.old_cost < kInf)
        result.step_gains.add(step.old_cost - step.new_cost);
      if (options.observer != nullptr)
        options.observer->on_step(step, result.moves);
      if (options.record_steps) result.steps.push_back(std::move(step));
    }
    if (options.observer != nullptr)
      options.observer->on_round_end(round_index, steps.size());

    if (options.detect_cycles) {
      // O(1) incremental fingerprint; a hit is confirmed exactly against
      // the table's change log, so collisions never fake a cycle.
      const std::uint64_t hash = engine.profile_hash();
      const std::size_t prev = visited.find(hash, engine.profile());
      if (prev != TranspositionTable::npos) {
        result.cycle_found = true;
        result.cycle_start = static_cast<std::size_t>(visited.value(prev));
        result.cycle_length =
            static_cast<std::size_t>(result.moves) - result.cycle_start;
        break;
      }
      visited.insert(hash, result.moves);
    }
    done = result.moves >= options.max_moves;
  }

  result.rounds = scheduler->rounds();
  result.hash_collisions = visited.collisions();
  result.final_profile = engine.profile();
  if (options.observer != nullptr) options.observer->on_run_end(result);
  return result;
}

bool verify_improvement_cycle(const Game& game, const StrategyProfile& start,
                              const std::vector<DynamicsStep>& cycle,
                              bool require_best_response) {
  if (cycle.empty()) return false;
  // Replay on one engine: set_strategy updates the materialized adjacency
  // incrementally instead of copying the whole profile and rebuilding a
  // fresh environment per step, and the best-response check borrows the
  // engine's adjacency (near-linear per step instead of quadratic).
  DeviationEngine engine(game, start);
  for (const auto& step : cycle) {
    if (engine.profile().strategy(step.agent) != step.old_strategy)
      return false;
    const double before = engine.agent_cost(step.agent);
    engine.set_strategy(step.agent, step.new_strategy);
    const double after = engine.agent_cost(step.agent);
    if (!improves(after, before)) return false;
    if (require_best_response) {
      // The landing cost must match the exact best-response cost against
      // the *pre-step* profile; the cheap strict-improvement rejection
      // above runs first so invalid cycles never pay the NP-hard search.
      engine.set_strategy(step.agent, step.old_strategy);
      const double br_cost = exact_best_response(engine, step.agent).cost;
      engine.set_strategy(step.agent, step.new_strategy);
      const double slack = kImproveEps * std::max(1.0, std::abs(br_cost));
      if (after > br_cost + slack) return false;
    }
  }
  return engine.profile() == start;
}

}  // namespace gncg
