// Best-response computation.
//
// Computing a best response is NP-hard in every variant of the game
// (Corollary 1, Theorems 13 and 16), so the exact solver is a pruned
// exponential search over subsets of purchase targets:
//   * candidates are sorted by edge weight;
//   * a subtree is pruned when its admissible lower bound
//     cannot beat the incumbent (any built network's distances are bounded
//     below by the host's shortest-path closure);
//   * for equilibrium *checks* the incumbent is the agent's current cost and
//     the search stops at the first strict improvement.
// The production search is the incremental branch-and-bound engine in
// core/br_search.hpp (in-DFS distance maintenance, per-node floors,
// deterministic parallel fan-out); the pre-refactor per-subset-Dijkstra
// search survives outside the library as the differential baseline
// (tests/reference/naive_search.hpp).
//
// Alongside the exact solver live the single-move evaluators (add / delete /
// swap) that define Greedy and Add-only Equilibria (Lenzner'12 as cited by
// the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "core/game.hpp"
#include "graph/csr_adjacency.hpp"

namespace gncg {

class DeviationEngine;

/// The network seen by agent u when re-deciding its strategy: every edge
/// bought by the *other* agents.  Evaluating a candidate S means one
/// Dijkstra over (environment + edges from u to S).
///
/// Two storage modes:
///  * built from (game, profile): owns its adjacency lists;
///  * built from a DeviationEngine: *borrows* the engine's materialized
///    adjacency and masks u's sole-owned edges on the fly (edges u and a
///    neighbor both buy stay: the neighbor keeps paying in the environment).
///    No per-call adjacency copy -- the borrow is valid until the engine's
///    next mutation, exactly like engine.adjacency() itself.
class AgentEnvironment {
 public:
  AgentEnvironment(const Game& game, const StrategyProfile& s, int u);

  /// Borrows the engine's materialized adjacency (no copy); valid until the
  /// engine's next mutation.
  AgentEnvironment(const DeviationEngine& engine, int u);

  int agent() const { return agent_; }
  const Game& game() const { return *game_; }

  /// Enumerates the environment edges incident to x: `visit(y, w)` for every
  /// environment edge (x, y).  The hot loop of every search over the
  /// environment (Dijkstra evaluation, incremental repair).
  template <class Visit>
  void for_neighbors(int x, Visit&& visit) const {
    if (borrowed_ != nullptr) {
      for (const auto& nb : borrowed_->neighbors(x)) {
        if (x == agent_) {
          if (sole_owned(nb.to)) continue;
        } else if (nb.to == agent_ && sole_owned(x)) {
          continue;
        }
        visit(nb.to, nb.weight);
      }
    } else {
      for (const auto& nb : owned_[static_cast<std::size_t>(x)])
        visit(nb.to, nb.weight);
    }
  }

  /// cost(u) if u plays exactly `targets`: alpha * w(u, targets) + distance
  /// cost in (environment + candidate edges).
  double cost_of(const NodeSet& targets) const;

  /// Distance-cost only variant (shared by cost_of and the searches).
  double distance_cost_of(const NodeSet& targets) const;

  /// Weighted eccentricity of the agent in (environment + candidate edges):
  /// the distance term of the MAX variant (variants/max_game.hpp).
  double eccentricity_of(const NodeSet& targets) const;

 private:
  const Game* game_;
  int agent_;
  /// Borrow mode: the engine's CSR adjacency and profile.  u's sole-owned
  /// targets (u buys the edge, the target does not) are the edges that
  /// vanish when u rethinks its strategy; they are read off the profile on
  /// the fly, so building a borrowed environment allocates nothing.
  bool sole_owned(int target) const {
    return borrowed_profile_->strategy(agent_).contains(target) &&
           !borrowed_profile_->buys(target, agent_);
  }
  const CsrAdjacency* borrowed_ = nullptr;
  const StrategyProfile* borrowed_profile_ = nullptr;
  /// Owned mode: environment adjacency built from the profile.
  std::vector<std::vector<Neighbor>> owned_;
};

/// Result of an exact best-response search.
struct BestResponseResult {
  NodeSet strategy;               ///< best deviation found
  double cost = kInf;             ///< agent cost of that deviation
  bool improved = false;          ///< beat the incumbent bound strictly
  std::uint64_t evaluations = 0;  ///< number of candidate evaluations
};

/// Options for the exact search.  The search's inputs (candidates, base
/// vector, host row, facility rows) are built in one place from the
/// environment and restrict_targets (core/br_search.hpp prepare_br_setup);
/// incumbent and first_improvement steer the search over them.
struct BestResponseOptions {
  /// Pruning bound: subtrees that cannot strictly beat it are cut.  Pass the
  /// agent's current cost for equilibrium checks; kInf for a full argmin.
  double incumbent = kInf;
  /// Stop at the first strategy that strictly beats the incumbent (used by
  /// is_nash_equilibrium; the returned strategy is then *an* improvement,
  /// not necessarily the best one).
  bool first_improvement = false;

  /// When non-null, the search only considers strategies over this target
  /// list (the spatial candidate oracle's shortlist; entries that are not
  /// purchasable are skipped, duplicates collapse).  The search is then
  /// exact *over the restricted space*: the returned cost is the true
  /// minimum among subsets of the list, an upper bound on the unrestricted
  /// best response.  With a list covering every purchasable target the
  /// result is bit-identical to the unrestricted search (the differential
  /// gate in tests/test_approx_br.cpp).  The pointee must outlive the call.
  const std::vector<int>* restrict_targets = nullptr;
};

/// Exact best response of agent u against the rest of profile `s`.
/// Runs the incremental branch-and-bound engine (core/br_search.hpp): one
/// Dijkstra per call, in-DFS incremental distance maintenance per subset.
BestResponseResult exact_best_response(const Game& game,
                                       const StrategyProfile& s, int u,
                                       const BestResponseOptions& options = {});

/// Exact best response against an engine's current profile, borrowing the
/// engine's materialized adjacency for the environment (no copy).
BestResponseResult exact_best_response(const DeviationEngine& engine, int u,
                                       const BestResponseOptions& options = {});

/// Out-parameter form of the engine-backed search: writes into `result`,
/// reusing its strategy's storage.  With the pool at one thread, a warmed
/// loop of full-mode calls allocates nothing (tests/test_arena.cpp).
void exact_best_response(const DeviationEngine& engine, int u,
                         const BestResponseOptions& options,
                         BestResponseResult& result);

/// True when agent u has *any* strategy strictly cheaper than its current
/// one (early-exit exact search).
bool has_improving_deviation(const Game& game, const StrategyProfile& s, int u);

/// Engine-backed variant: no environment rebuild, no adjacency copy.  Batch
/// callers (NE certification loops) reuse one engine across agents.
bool has_improving_deviation(DeviationEngine& engine, int u);

/// Single-move deviations (the Greedy Equilibrium move set).
enum class MoveType { kNone, kAdd, kDelete, kSwap };

struct SingleMove {
  MoveType type = MoveType::kNone;
  int remove = -1;  ///< target whose edge is deleted (kDelete / kSwap)
  int add = -1;     ///< target whose edge is bought (kAdd / kSwap)
};

struct SingleMoveResult {
  SingleMove move;               ///< best single move (kNone if nothing improves)
  double cost = kInf;            ///< agent cost after the best single move
  double current_cost = kInf;    ///< agent cost before moving
  bool improved = false;
};

/// Best single move (add, delete or swap) of agent u; `current_cost` is
/// always filled.  Thin wrapper over a one-shot DeviationEngine; batch
/// callers should build an engine once and reuse it across agents.
SingleMoveResult best_single_move(const Game& game, const StrategyProfile& s,
                                  int u);

/// Best edge *addition* only (the Add-only Equilibrium move set).
SingleMoveResult best_addition(const Game& game, const StrategyProfile& s,
                               int u);

/// Best edge *swap* only (the move set of swap/asymmetric-swap equilibria
/// from the basic network creation games the paper builds on).
SingleMoveResult best_swap(const Game& game, const StrategyProfile& s, int u);

/// Applies `move` to agent u's strategy in place.
void apply_move(StrategyProfile& s, int u, const SingleMove& move);

}  // namespace gncg
