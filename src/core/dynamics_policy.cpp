#include "core/dynamics_policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/dynamics.hpp"
#include "core/facility_location.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

// --- move rules -----------------------------------------------------------

class BestResponseRule final : public MoveRulePolicy {
 public:
  bool wants_full_warm() const override { return false; }

  Proposal propose_warm(const DeviationEngine& engine, int u) const override {
    Proposal proposal;
    const double current = engine.agent_cost_warm(u);
    BestResponseOptions options;
    options.incumbent = current;
    const auto br = exact_best_response(engine, u, options);
    proposal.old_cost = current;
    if (br.improved) {
      proposal.improving = true;
      proposal.strategy = br.strategy;
      proposal.new_cost = br.cost;
    }
    return proposal;
  }
};

/// Shared body of the GE (add/delete/swap) and AE (add-only) scan rules.
class SingleMoveRule final : public MoveRulePolicy {
 public:
  explicit SingleMoveRule(bool additions_only)
      : additions_only_(additions_only) {}

  bool wants_full_warm() const override { return true; }

  Proposal propose_warm(const DeviationEngine& engine, int u) const override {
    Proposal proposal;
    const auto move = additions_only_ ? engine.best_addition_warm(u)
                                      : engine.best_single_move_warm(u);
    proposal.old_cost = move.current_cost;
    if (move.improved) {
      proposal.improving = true;
      NodeSet next = engine.profile().strategy(u);
      if (move.move.remove >= 0) next.erase(move.move.remove);
      if (move.move.add >= 0) next.insert(move.move.add);
      proposal.strategy = std::move(next);
      proposal.new_cost = move.cost;
    }
    return proposal;
  }

 private:
  bool additions_only_;
};

class UmflRule final : public MoveRulePolicy {
 public:
  bool wants_full_warm() const override { return false; }

  Proposal propose_warm(const DeviationEngine& engine, int u) const override {
    Proposal proposal;
    const double current = engine.agent_cost_warm(u);
    NodeSet candidate =
        approx_best_response_umfl(engine.game(), engine.profile(), u);
    const double cost = engine.cost_of_strategy(u, candidate);
    proposal.old_cost = current;
    if (improves(cost, current) &&
        !(candidate == engine.profile().strategy(u))) {
      proposal.improving = true;
      proposal.strategy = std::move(candidate);
      proposal.new_cost = cost;
    }
    return proposal;
  }
};

/// Approximate-BR ladder rule: tier-1 greedy over the spatial shortlist,
/// escalating to the shortlist-restricted exact search (core/approx_br.hpp).
/// The ladder's result is re-checked against the agent's warm current cost,
/// so an applied move is always a strict improvement -- the dynamics then
/// follow approximate better-response, and a converged profile is a
/// (beta, eps)-equilibrium certified by the ladder's escape bound.
class ApproxLadderRule final : public MoveRulePolicy {
 public:
  ApproxLadderRule(int budget, std::size_t repair_cap)
      : budget_(budget), repair_cap_(repair_cap) {}

  bool wants_full_warm() const override { return false; }

  Proposal propose_warm(const DeviationEngine& engine, int u) const override {
    Proposal proposal;
    const double current = engine.agent_cost_warm(u);
    ApproxBrOptions options;
    options.budget = budget_;
    options.incumbent = current;
    options.repair_cap = repair_cap_;
    // The warm row tightens the ladder's tier-1 certificate; a tier-1 exact
    // claim (sound: lower_bound >= cost means nothing improves on it) then
    // skips the restricted search without changing the proposal.
    options.current_dist = &engine.distances_warm(u);
    const ApproxBrResult ladder = approx_best_response_ladder(engine, u,
                                                              options);
    proposal.old_cost = current;
    if (ladder.improved &&
        !(ladder.strategy == engine.profile().strategy(u))) {
      proposal.improving = true;
      proposal.strategy = ladder.strategy;
      proposal.new_cost = ladder.cost;
    }
    return proposal;
  }

 private:
  int budget_;
  std::size_t repair_cap_;
};

// --- schedulers -----------------------------------------------------------

/// Round-robin / random-order: probe agents along an activation order; a
/// step continues the current round, a full round without a move certifies
/// convergence (the profile only changes on applied steps, so nothing can
/// start improving between silent probes).
class OrderScheduler final : public SchedulerPolicy {
 public:
  OrderScheduler(int n, bool reshuffle) : reshuffle_(reshuffle) {
    order_.resize(static_cast<std::size_t>(n));
    std::iota(order_.begin(), order_.end(), 0);
    cursor_ = order_.size();  // first next() opens round 1
  }

  std::optional<Activation> next(DeviationEngine& engine,
                                 const MoveRulePolicy& rule,
                                 Rng& rng) override {
    for (;;) {
      if (cursor_ >= order_.size()) {
        if (!moved_this_round_ && rounds_ > 0) return std::nullopt;
        cursor_ = 0;
        moved_this_round_ = false;
        ++rounds_;
        if (reshuffle_) rng.shuffle(order_);
      }
      const int u = order_[cursor_++];
      Proposal proposal = propose(engine, rule, u);
      if (proposal.improving) {
        moved_this_round_ = true;
        return Activation{u, std::move(proposal)};
      }
    }
  }

  std::uint64_t rounds() const override { return rounds_; }

 private:
  bool reshuffle_;
  std::vector<int> order_;
  std::size_t cursor_ = 0;
  bool moved_this_round_ = false;
  std::uint64_t rounds_ = 0;
};

/// Proposes every agent against warm state into a pre-sized vector (one
/// writer per slot, so the result is independent of thread count).
std::vector<Proposal> propose_all(DeviationEngine& engine,
                                  const MoveRulePolicy& rule, int n) {
  engine.warm_distances();
  std::vector<Proposal> proposals(static_cast<std::size_t>(n));
  const DeviationEngine& warm = engine;
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t u) {
    proposals[u] = rule.propose_warm(warm, static_cast<int>(u));
  });
  return proposals;
}

/// Max-gain with a starvation bound: an agent whose improving move has been
/// passed over for 2n consecutive selections is prioritized (most overdue
/// first).  Bounded unfairness matters for dynamics experiments:
/// pure max-gain can starve an agent indefinitely, which the convergence
/// literature's fairness assumptions (and the paper's round-based
/// schedules) exclude.
class FairnessBoundedScheduler final : public SchedulerPolicy {
 public:
  explicit FairnessBoundedScheduler(int n)
      : n_(n),
        bound_(2 * static_cast<std::uint64_t>(n)),
        waiting_(static_cast<std::size_t>(n), 0) {}

  std::optional<Activation> next(DeviationEngine& engine,
                                 const MoveRulePolicy& rule, Rng&) override {
    std::vector<Proposal> proposals = propose_all(engine, rule, n_);
    int chosen = -1;
    bool overdue = false;
    for (int u = 0; u < n_; ++u) {
      if (!proposals[static_cast<std::size_t>(u)].improving) continue;
      const std::uint64_t wait = waiting_[static_cast<std::size_t>(u)];
      if (wait >= bound_) {
        // Overdue agents win outright; among them the most overdue first
        // (ties to the smallest id via strict >).
        if (!overdue || wait > waiting_[static_cast<std::size_t>(chosen)]) {
          chosen = u;
          overdue = true;
        }
      } else if (!overdue) {
        if (chosen < 0 ||
            proposals[static_cast<std::size_t>(u)].gain() >
                proposals[static_cast<std::size_t>(chosen)].gain()) {
          chosen = u;
        }
      }
    }
    if (chosen < 0) return std::nullopt;
    for (int u = 0; u < n_; ++u) {
      auto& wait = waiting_[static_cast<std::size_t>(u)];
      if (u == chosen || !proposals[static_cast<std::size_t>(u)].improving)
        wait = 0;
      else
        ++wait;
    }
    ++steps_;
    return Activation{chosen,
                      std::move(proposals[static_cast<std::size_t>(chosen)])};
  }

  std::uint64_t rounds() const override { return steps_; }

 private:
  int n_;
  std::uint64_t bound_;
  std::vector<std::uint64_t> waiting_;
  std::uint64_t steps_ = 0;
};

/// Samples an improving agent with probability proportional to
/// exp(gain / T), T = kTau times the current largest gain.  A randomized
/// middle ground between max-gain (tau -> 0) and uniform random activation
/// of improving agents (tau -> inf); selection randomness comes from the
/// run's Rng, so runs stay reproducible.
class SoftmaxGainScheduler final : public SchedulerPolicy {
 public:
  explicit SoftmaxGainScheduler(int n) : n_(n) {}

  std::optional<Activation> next(DeviationEngine& engine,
                                 const MoveRulePolicy& rule,
                                 Rng& rng) override {
    std::vector<Proposal> proposals = propose_all(engine, rule, n_);
    std::vector<int> improving;
    bool any_inf = false;
    for (int u = 0; u < n_; ++u) {
      if (!proposals[static_cast<std::size_t>(u)].improving) continue;
      improving.push_back(u);
      any_inf = any_inf ||
                proposals[static_cast<std::size_t>(u)].gain() == kInf;
    }
    if (improving.empty()) return std::nullopt;

    int chosen;
    if (any_inf) {
      // Reconnecting moves (infinite gain) dominate every finite one:
      // sample uniformly among them.
      std::vector<int> urgent;
      for (int u : improving)
        if (proposals[static_cast<std::size_t>(u)].gain() == kInf)
          urgent.push_back(u);
      chosen = urgent[rng.uniform_below(urgent.size())];
    } else {
      double max_gain = 0.0;
      for (int u : improving)
        max_gain =
            std::max(max_gain, proposals[static_cast<std::size_t>(u)].gain());
      const double temperature = kTau * max_gain;
      if (!(temperature > 0.0)) {
        // Degenerate gains: fall back to uniform among improving agents.
        chosen = improving[rng.uniform_below(improving.size())];
      } else {
        double total = 0.0;
        std::vector<double> weights;
        weights.reserve(improving.size());
        for (int u : improving) {
          const double w = std::exp(
              (proposals[static_cast<std::size_t>(u)].gain() - max_gain) /
              temperature);
          weights.push_back(w);
          total += w;
        }
        double r = rng.uniform01() * total;
        chosen = improving.back();
        for (std::size_t i = 0; i < improving.size(); ++i) {
          r -= weights[i];
          if (r <= 0.0) {
            chosen = improving[i];
            break;
          }
        }
      }
    }
    ++steps_;
    return Activation{chosen,
                      std::move(proposals[static_cast<std::size_t>(chosen)])};
  }

  std::uint64_t rounds() const override { return steps_; }

 private:
  /// Selection temperature relative to the largest current gain.
  static constexpr double kTau = 0.25;

  int n_;
  std::uint64_t steps_ = 0;
};

/// A shard's max-gain nominee (parallel_mgm).
struct BestProposal {
  int agent = -1;
  double gain = 0.0;
  Proposal proposal;
};

/// Sharded parallel MGM (maximum-gain messaging): one round proposes every
/// agent concurrently against the same warm profile (per-index slots, so
/// the batch is independent of thread count), each contiguous agent shard
/// nominates its max-gain improving agent (ties to the smallest id, the
/// gain-scheduler contract), and a deterministic greedy maximal independent
/// set of the nominees -- processed by (gain desc, id asc), conflict =
/// overlapping conservative touch sets {u} ∪ old(u) ∪ new(u) -- commits
/// together.  The top-ranked nominee always commits, so every round with an
/// improving agent makes progress; with 1 shard the round is the sequential
/// max-gain step (SchedulerKind::kMaxGain).  All selection logic is serial
/// over the proposal slots: thread count changes throughput, never results.
class ParallelMgmScheduler final : public SchedulerPolicy {
 public:
  ParallelMgmScheduler(int n, int shards)
      : n_(n),
        shards_(shards > 0 ? std::min(shards, std::max(n, 1))
                           : std::max(1, n / 16)) {}

  std::vector<Activation> next_round(DeviationEngine& engine,
                                     const MoveRulePolicy& rule,
                                     Rng&) override {
    std::vector<Proposal> proposals = propose_all(engine, rule, n_);
    GNCG_COUNT_N(kMgmProposals, static_cast<std::uint64_t>(n_));

    // Shard nomination over the slots (serial; deterministic).
    std::vector<BestProposal> nominees;
    for (int s = 0; s < shards_; ++s) {
      const int lo = static_cast<int>(
          static_cast<std::int64_t>(n_) * s / shards_);
      const int hi = static_cast<int>(
          static_cast<std::int64_t>(n_) * (s + 1) / shards_);
      BestProposal best;
      for (int u = lo; u < hi; ++u) {
        Proposal& p = proposals[static_cast<std::size_t>(u)];
        if (!p.improving) continue;
        const double gain = p.gain();
        if (best.agent < 0 || gain > best.gain ||
            (gain == best.gain && u < best.agent)) {
          best.agent = u;
          best.gain = gain;
          best.proposal = std::move(p);
        }
      }
      if (best.agent >= 0) nominees.push_back(std::move(best));
    }
    if (nominees.empty()) return {};  // no improving agent anywhere
    ++rounds_;
    GNCG_COUNT(kMgmRounds);

    // Greedy maximal independent set by (gain desc, id asc): the first
    // nominee always survives, later ones only when their touch set is
    // disjoint from everything already claimed.
    std::sort(nominees.begin(), nominees.end(),
              [](const BestProposal& a, const BestProposal& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                return a.agent < b.agent;
              });
    NodeSet claimed(n_);
    std::vector<int> touch;
    std::vector<Activation> committed;
    for (auto& nominee : nominees) {
      engine.move_conflict_set(nominee.agent, nominee.proposal.strategy,
                               touch);
      bool conflict = false;
      for (int t : touch) conflict = conflict || claimed.contains(t);
      if (conflict) {
        GNCG_COUNT(kMgmConflictDrops);
        continue;
      }
      for (int t : touch) claimed.insert(t);
      committed.push_back(
          Activation{nominee.agent, std::move(nominee.proposal)});
    }
    GNCG_COUNT_N(kMgmCommits,
                 static_cast<std::uint64_t>(committed.size()));

    // Commit in ascending agent id: the order is deterministic and -- the
    // committed moves being pairwise non-conflicting -- equivalent to any
    // other order of the same batch.
    std::sort(committed.begin(), committed.end(),
              [](const Activation& a, const Activation& b) {
                return a.agent < b.agent;
              });
    return committed;
  }

  std::uint64_t rounds() const override { return rounds_; }

 private:
  int n_;
  int shards_;
  std::uint64_t rounds_ = 0;
};

}  // namespace

std::optional<Activation> SchedulerPolicy::next(DeviationEngine&,
                                                const MoveRulePolicy&, Rng&) {
  GNCG_CHECK(false, "round-based scheduler: drive it through next_round "
                    "(the dynamics kernel does)");
}

std::vector<Activation> SchedulerPolicy::next_round(DeviationEngine& engine,
                                                    const MoveRulePolicy& rule,
                                                    Rng& rng) {
  std::vector<Activation> round;
  if (auto activation = next(engine, rule, rng))
    round.push_back(std::move(*activation));
  return round;
}

Proposal propose(DeviationEngine& engine, const MoveRulePolicy& rule, int u) {
  // Single-move scans read every agent's cached vector; the other rules
  // only read u's (the BR/UMFL searches run their own Dijkstras), so a
  // full warm-up would waste n-1 SSSP per proposal.  The scan runs on this
  // thread, so it takes the single-scan warm: no work after a silent probe,
  // and after a move the logged rows are repaired here, where the scan
  // reads them.  propose_all keeps the batch warm: its scans run on every
  // worker.
  if (rule.wants_full_warm()) {
    engine.warm_for_scan();
  } else {
    engine.distance_cost(u);
  }
  return rule.propose_warm(engine, u);
}

std::string_view scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kRoundRobin: return "round_robin";
    case SchedulerKind::kRandomOrder: return "random_order";
    case SchedulerKind::kMaxGain: return "max_gain";
    case SchedulerKind::kFairnessBounded: return "fairness_bounded";
    case SchedulerKind::kSoftmaxGain: return "softmax_gain";
    case SchedulerKind::kParallelMgm: return "parallel_mgm";
  }
  GNCG_CHECK(false, "unknown SchedulerKind");
}

std::string_view move_rule_name(MoveRule rule) {
  switch (rule) {
    case MoveRule::kBestResponse: return "best_response";
    case MoveRule::kBestSingleMove: return "best_single_move";
    case MoveRule::kBestAddition: return "best_addition";
    case MoveRule::kUmflResponse: return "umfl_response";
    case MoveRule::kApproxLadder: return "approx_ladder";
  }
  GNCG_CHECK(false, "unknown MoveRule");
}

std::unique_ptr<MoveRulePolicy> make_move_rule(const DynamicsOptions& options) {
  switch (options.rule) {
    case MoveRule::kBestResponse:
      return std::make_unique<BestResponseRule>();
    case MoveRule::kBestSingleMove:
      return std::make_unique<SingleMoveRule>(/*additions_only=*/false);
    case MoveRule::kBestAddition:
      return std::make_unique<SingleMoveRule>(/*additions_only=*/true);
    case MoveRule::kUmflResponse:
      return std::make_unique<UmflRule>();
    case MoveRule::kApproxLadder:
      return std::make_unique<ApproxLadderRule>(options.approx_budget,
                                                options.approx_repair_cap);
  }
  GNCG_CHECK(false, "unknown MoveRule");
}

std::unique_ptr<SchedulerPolicy> make_scheduler(const DynamicsOptions& options,
                                                int node_count) {
  switch (options.scheduler) {
    case SchedulerKind::kRoundRobin:
      return std::make_unique<OrderScheduler>(node_count, /*reshuffle=*/false);
    case SchedulerKind::kRandomOrder:
      return std::make_unique<OrderScheduler>(node_count, /*reshuffle=*/true);
    case SchedulerKind::kMaxGain:
      return std::make_unique<ParallelMgmScheduler>(node_count, /*shards=*/1);
    case SchedulerKind::kFairnessBounded:
      return std::make_unique<FairnessBoundedScheduler>(node_count);
    case SchedulerKind::kSoftmaxGain:
      return std::make_unique<SoftmaxGainScheduler>(node_count);
    case SchedulerKind::kParallelMgm:
      return std::make_unique<ParallelMgmScheduler>(node_count,
                                                    options.mgm_shards);
  }
  GNCG_CHECK(false, "unknown SchedulerKind");
}

}  // namespace gncg
