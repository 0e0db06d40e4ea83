// Dynamics policies: pluggable move rules and activation schedulers.
//
// The dynamics kernel (core/dynamics.hpp) is a loop of "the scheduler picks
// an improving activation, the engine applies it".  Both decisions are
// policies:
//
//  * A MoveRulePolicy maps an activated agent to its proposed deviation
//    (exact best response, best single move, best addition, UMFL
//    3-approximation).  Proposals are evaluated against *warm* engine state
//    and must be const + thread-safe, so gain-based schedulers can fan all
//    agents out over the worker pool.
//  * A SchedulerPolicy decides which agent moves next: round-robin and
//    random-order probe agents in an activation order (one full silent
//    round certifies convergence); softmax-gain, fairness-bounded and
//    parallel-MGM batch-propose every agent in parallel and select by gain
//    (deterministically -- any randomness comes from the run's Rng, never
//    from thread scheduling).  Max-gain is parallel-MGM with one shard.
//
// Policies are stateful per run (cursors, fairness counters) and are built
// fresh per run by make_move_rule / make_scheduler (core/dynamics.hpp):
// one switch over the MoveRule / SchedulerKind enums, reading the policy
// knobs from DynamicsOptions.  The enums are the only way to select a
// policy; scheduler_name / move_rule_name give the stable names journals
// tag rows with.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/deviation_engine.hpp"
#include "support/rng.hpp"

namespace gncg {

/// What an activated agent plays.
enum class MoveRule {
  kBestResponse,    ///< exact best response (exponential per activation)
  kBestSingleMove,  ///< best add/delete/swap (the GE move set)
  kBestAddition,    ///< best single addition (the AE move set)
  kUmflResponse,    ///< 3-approximate BR via facility-location local search
  kApproxLadder,    ///< spatial-shortlist approximate-BR ladder
};

/// Order in which agents are activated.
enum class SchedulerKind {
  kRoundRobin,       ///< fixed order 0..n-1, repeated
  kRandomOrder,      ///< fresh uniform permutation every round
  kMaxGain,          ///< activate the agent with the largest cost improvement
                     ///< (parallel_mgm with exactly one shard)
  kFairnessBounded,  ///< max-gain, but no improving agent waits > 2n steps
  kSoftmaxGain,      ///< sample an improving agent ~ softmax of its gain
  kParallelMgm,      ///< sharded MGM rounds: non-conflicting winners commit
};

/// A proposed deviation for one agent: the strategy and the resulting cost.
struct Proposal {
  bool improving = false;
  NodeSet strategy;
  double old_cost = kInf;
  double new_cost = kInf;

  /// Cost improvement; kInf when the move reconnects a disconnected agent.
  double gain() const {
    return (old_cost < kInf && new_cost < kInf) ? old_cost - new_cost : kInf;
  }
};

/// One scheduler decision: the chosen agent and its (improving) proposal.
struct Activation {
  int agent = -1;
  Proposal proposal;
};

/// Maps an activated agent to its proposal.  Stateless; const-callable from
/// multiple threads against warm engine state.
class MoveRulePolicy {
 public:
  virtual ~MoveRulePolicy() = default;

  /// Proposal for agent u against warm engine state (const, thread-safe).
  virtual Proposal propose_warm(const DeviationEngine& engine,
                                int u) const = 0;

  /// True when propose_warm reads every agent's distance cache (the
  /// single-move scans); false when it only reads u's (the BR / UMFL
  /// searches run their own Dijkstras, and a full warm-up would waste
  /// n-1 SSSP per serial proposal).
  virtual bool wants_full_warm() const = 0;
};

/// Warms exactly the caches `rule` needs for agent u, then proposes (the
/// serial activation path; gain-based schedulers warm everything once and
/// call propose_warm directly).
Proposal propose(DeviationEngine& engine, const MoveRulePolicy& rule, int u);

/// Decides which agent moves next.  Stateful per run.  The kernel drives
/// schedulers through `next_round`: the batch of activations to commit
/// together (an empty batch certifies convergence), applied by the kernel
/// in the returned order before the following call.  Sequential schedulers
/// override `next` (one activation per round, via the default adapter);
/// round-based ones (parallel_mgm) override `next_round` directly.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// The next improving activation, or nullopt when no agent can improve
  /// (convergence).  All randomness must come from `rng`.  Round-based
  /// schedulers that only implement next_round contract-fail here.
  virtual std::optional<Activation> next(DeviationEngine& engine,
                                         const MoveRulePolicy& rule, Rng& rng);

  /// The activations committed this round, in commit order; empty means no
  /// agent can improve (convergence).  Agents are distinct within a round
  /// and every proposal was improving against the round's start profile.
  /// Default: adapts `next` into single-activation rounds, so sequential
  /// scheduler behavior under the round kernel is unchanged move for move.
  virtual std::vector<Activation> next_round(DeviationEngine& engine,
                                             const MoveRulePolicy& rule,
                                             Rng& rng);

  /// Completed activation rounds (order-based schedulers), selection steps
  /// (gain-based ones) or MGM rounds -- the DynamicsResult::rounds value.
  virtual std::uint64_t rounds() const = 0;
};

/// Stable policy names (journal tags, bench tables).
std::string_view scheduler_name(SchedulerKind kind);
std::string_view move_rule_name(MoveRule rule);

}  // namespace gncg
