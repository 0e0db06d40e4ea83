// The dynamics kernel: improving-move processes and their convergence, over
// pluggable policies.
//
// The paper shows none of its models has the Finite Improvement Property
// (Corollary 1, Theorems 14 and 17): improving-move sequences can cycle, so
// best-response dynamics carry no convergence guarantee.  This kernel runs
// the dynamics anyway: a SchedulerPolicy picks improving activations under
// a MoveRulePolicy (core/dynamics_policy.hpp), every applied step streams
// through the StepObserver API, and revisited strategy profiles -- which
// certify a best-response / improving-move cycle in the paper's sense --
// are detected via the engine's incremental Zobrist hash against a
// transposition table (core/transposition.hpp), whose change log confirms
// every hash hit exactly so a collision can never report a false cycle.
//
// The kernel commits in *rounds*: sequential schedulers yield one
// activation per round (the historical per-move loop, unchanged move for
// move), while the parallel_mgm scheduler yields a batch of non-conflicting
// moves that commits atomically, with revisit detection at round
// granularity.
//
// Restart orchestration (parallel multi-start sweeps over this kernel)
// lives in core/restarts.hpp; start-profile generators in
// core/profile_gen.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/deviation_engine.hpp"
#include "core/dynamics_policy.hpp"
#include "core/game.hpp"
#include "core/profile_gen.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace gncg {

/// One improving move taken during a run.
struct DynamicsStep {
  int agent = -1;
  NodeSet old_strategy;
  NodeSet new_strategy;
  double old_cost = 0.0;
  double new_cost = 0.0;
  /// 1-based commit round the move belonged to.  Sequential schedulers
  /// commit one move per round (round == move index); the parallel-MGM
  /// scheduler commits whole batches of non-conflicting moves, all tagged
  /// with the same round and all improving against the round's start
  /// profile (costs are round-start costs, not sequential-replay costs).
  std::uint64_t round = 0;
};

struct DynamicsResult;

/// Streaming observer over a dynamics run.  The kernel's own trace and
/// gain-statistics recording go through the same callbacks, so sinks
/// (labs, benches, sweep scenarios) subscribe instead of re-deriving state
/// from raw step vectors.
///
/// Lifetime contract: the observer must outlive the run_dynamics call it is
/// passed to; the kernel never retains it afterwards.  Callbacks arrive on
/// the calling thread, strictly ordered (on_run_start, then one on_step per
/// applied move with on_round_end closing each commit round, then
/// on_run_end).  The engine reference passed to on_run_start is only valid
/// during the callback.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Called once before the first activation, against the start state.
  virtual void on_run_start(const DeviationEngine& engine) { (void)engine; }

  /// Called after step `move_index` (1-based) was applied to the engine.
  virtual void on_step(const DynamicsStep& step, std::uint64_t move_index) = 0;

  /// Called after a commit round's moves were all applied (and their
  /// on_step callbacks delivered).  `committed` is the batch size: always 1
  /// for sequential schedulers, >= 1 under parallel_mgm.
  virtual void on_round_end(std::uint64_t round_index,
                            std::size_t committed) {
    (void)round_index;
    (void)committed;
  }

  /// Called once with the finished result (cycle/convergence flags set).
  virtual void on_run_end(const DynamicsResult& result) { (void)result; }
};

struct DynamicsOptions {
  MoveRule rule = MoveRule::kBestResponse;
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;

  std::uint64_t max_moves = 10000;
  bool detect_cycles = true;
  std::uint64_t seed = 1;

  /// Approx-ladder move rule: candidate-shortlist size handed to the
  /// spatial oracle.  <= 0 picks the ladder's default.
  int approx_budget = 0;
  /// Approx-ladder bounded-frontier repair cap (ApproxBrOptions::repair_cap);
  /// 0 = exact repairs.  Applied moves stay strict better-responses either
  /// way (the ladder adopts a strategy only after an exact repair).
  std::size_t approx_repair_cap = 0;
  /// Parallel-MGM scheduler: agent shards per round (each shard nominates
  /// its max-gain improving agent; non-conflicting nominees commit
  /// together).  <= 0 picks the default max(1, n / 16).  kMaxGain ignores
  /// it: max_gain is parallel_mgm with exactly one shard.
  int mgm_shards = 0;

  /// Record the full move trajectory into DynamicsResult::steps.  Disable
  /// for bulk restart sweeps that only consume aggregate statistics; note
  /// cycle *replay* (cycle_steps / verify_improvement_cycle) needs the
  /// trace.
  bool record_steps = true;

  /// Optional observer streamed every applied step (non-owning; must
  /// outlive the run).
  StepObserver* observer = nullptr;
};

/// Fresh per-run policies for `options.rule` / `options.scheduler` (one
/// switch each over the enum), reading the policy knobs above.
std::unique_ptr<MoveRulePolicy> make_move_rule(const DynamicsOptions& options);
std::unique_ptr<SchedulerPolicy> make_scheduler(const DynamicsOptions& options,
                                                int node_count);

struct DynamicsResult {
  bool converged = false;     ///< the scheduler found no improving agent
  bool cycle_found = false;   ///< a strategy profile repeated
  std::size_t cycle_start = 0;   ///< step index where the cycle begins
  std::size_t cycle_length = 0;  ///< number of moves in the cycle
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
  /// Largest number of moves committed in one round: 1 for sequential
  /// schedulers, the achieved round parallelism under parallel_mgm.
  std::size_t max_round_commits = 0;
  /// Confirmed transposition-hash collisions during cycle detection
  /// (distinct profiles sharing a hash -- resolved exactly, never trusted).
  std::uint64_t hash_collisions = 0;
  StrategyProfile final_profile;
  /// Full move trajectory (empty when record_steps was off).
  std::vector<DynamicsStep> steps;
  /// Streaming statistics over per-step cost improvements (finite gains
  /// only), so aggregation sinks stop recomputing them from raw traces.
  SampleStats step_gains;

  /// The moves forming the detected cycle (empty when none).  The cycle's
  /// start profile equals `final_profile` (the repeated state), so
  /// `verify_improvement_cycle(game, final_profile, cycle_steps(), ...)`
  /// certifies it.  Requires record_steps.  Note the replay verifier is a
  /// *sequential* strict-improvement check: under parallel_mgm (where a
  /// step's costs are round-start costs and revisits are detected at round
  /// granularity) a detected cycle is a round-cycle and need not certify.
  std::vector<DynamicsStep> cycle_steps() const {
    if (!cycle_found || steps.size() < cycle_start) return {};
    return {steps.begin() + static_cast<std::ptrdiff_t>(cycle_start),
            steps.end()};
  }
};

/// Runs sequential dynamics from `start` until convergence, a detected
/// cycle, or the move budget runs out.
DynamicsResult run_dynamics(const Game& game, StrategyProfile start,
                            const DynamicsOptions& options);

/// Same, from the engine's current profile.  The restart driver reuses one
/// engine per worker this way (set_profile + run) instead of paying an
/// engine construction per restart.
DynamicsResult run_dynamics(DeviationEngine& engine,
                            const DynamicsOptions& options);

/// Replays `cycle` from `start` and verifies that (a) every step strictly
/// improves the moving agent's cost, (b) when `require_best_response` each
/// step lands on an exact best response, and (c) the final profile equals
/// `start`.  This is how found Theorem 14 / 17 cycles are certified.
bool verify_improvement_cycle(const Game& game, const StrategyProfile& start,
                              const std::vector<DynamicsStep>& cycle,
                              bool require_best_response);

}  // namespace gncg
