#include "core/approx_br.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/br_search.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "metric/host_backend.hpp"
#include "metric/spatial_index.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"

namespace gncg {

namespace {

constexpr int kDefaultLadderBudget = 16;

double dist_sum(const std::vector<double>& dist) {
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

/// The PR 5 per-node admissible floor (SumCostModel::tight_floor in
/// core/br_search.cpp), re-stated here as the escape bound's distance term:
/// in any strategy whose new edges all weigh >= w_next, node t sits at
/// distance >= max(d_H(u,t), min(d_base(t), w_next)).
double tight_floor_sum(const std::vector<double>& host_row,
                       const std::vector<double>& dist, double w_next) {
  double total = 0.0;
  for (std::size_t t = 0; t < dist.size(); ++t)
    total += std::max(host_row[t], std::min(dist[t], w_next));
  return total;
}

/// Current-network-aware distance floor (satellite of PR 9).  `cur` is u's
/// SSSP row in the *current built network* and G = max_x (d_cur(x) - w(u,x))
/// over purchasable x.  In any deviation, a path to t either
///  * avoids new edges entirely: length >= d_base(t) (first min arm), or
///  * enters through some new edge (u,x): length >= w(u,x) >= w_min, and
///    also >= (d_cur(x) - G) + d_env(x,t) >= d_cur(x) + d_cur(x,t) - G
///    >= d_cur(t) - G (environment edges all exist in the current network,
///    then the triangle inequality of its shortest-path metric).
/// Hence d_S(t) >= max(host(t), min(d_base(t), max(w_min, d_cur(t) - G))),
/// valid for every strategy and every sign of G.  On near-equilibrium
/// profiles d_cur(t) - G is usually far above w_min, which is what tightens
/// the per-agent eps certificates.
double current_floor_sum(const std::vector<double>& host_row,
                         const std::vector<double>& base,
                         const std::vector<double>& cur, double w_min,
                         double g_bound) {
  double total = 0.0;
  for (std::size_t t = 0; t < base.size(); ++t) {
    const double through_new =
        cur[t] < kInf ? std::max(w_min, cur[t] - g_bound) : w_min;
    total += std::max(host_row[t], std::min(base[t], through_new));
  }
  return total;
}

double beta_of(double cost, double lb) {
  if (!(cost < kInf)) return lb < kInf ? kInf : 1.0;
  if (cost <= 0.0) return 1.0;  // cost is 0: nothing can be cheaper
  if (lb <= 0.0) return kInf;   // vacuous bound, nothing certified
  return cost / lb;
}

ApproxBrResult ladder_over(const AgentEnvironment& env,
                           const ApproxBrOptions& options) {
  const Game& game = env.game();
  const int n = game.node_count();
  const int u = env.agent();

  ScratchArena& arena = worker_arena();
  ScratchArena::LadderScratch& scratch = arena.ladder();

  int budget = options.budget > 0 ? options.budget : kDefaultLadderBudget;
  budget = std::min(budget, n - 1);
  budget = std::max(budget, 0);

  // Candidate shortlist from the spatial oracle, (weight, id)-sorted.
  std::vector<int>& cand = scratch.cand;
  game.host().candidate_targets(u, budget, cand);
  GNCG_COUNT(kLadderCalls);
  GNCG_COUNT_N(kLadderCandidateBudget, static_cast<std::uint64_t>(budget));
  GNCG_COUNT_N(kLadderCandidates, cand.size());

  // One Dijkstra for the whole ladder: u's distances in the bare
  // environment.  Same kernel selection as br_search so distances match
  // bitwise.
  std::vector<double>& base_dist = scratch.base_dist;
  {
    const int dial_bound = game.host().dial_weight_bound();
    const auto environment_edges = [&](int x, auto&& visit) {
      env.for_neighbors(x, visit);
    };
    if (dial_bound > 0) {
      arena.dial().run_into(base_dist, n, u, dial_bound, environment_edges);
    } else {
      arena.dijkstra().run_into(base_dist, n, u, environment_edges);
    }
  }

  // Host-closure row (per-node floor) and per-node buy weights (canonical
  // edge-sum evaluation), as in br_search.
  std::vector<double>& host_row = scratch.host_row;
  std::vector<double>& weight_row = scratch.weight_row;
  host_row.assign(static_cast<std::size_t>(n), 0.0);
  weight_row.assign(static_cast<std::size_t>(n), kInf);
  for (int v = 0; v < n; ++v)
    host_row[static_cast<std::size_t>(v)] = game.host_distance(u, v);

  std::vector<double>& cand_w = scratch.cand_w;
  std::vector<char>& in_cand = scratch.in_cand;
  in_cand.assign(static_cast<std::size_t>(n), 0);
  cand_w.clear();
  cand_w.reserve(cand.size());
  for (int v : cand) {
    const double w = game.weight(u, v);
    cand_w.push_back(w);
    weight_row[static_cast<std::size_t>(v)] = w;
    in_cand[static_cast<std::size_t>(v)] = 1;
  }

  // One O(n) scan for the certification weights: the cheapest purchasable
  // edge overall (w_min_all, floor for *any* non-empty strategy), the
  // cheapest purchasable edge outside the shortlist (w_out_min, entry fee
  // of every escaping strategy), and -- when the caller supplied the
  // current-network row -- the G bound of the current-floor certificate.
  // A purchasable node unreachable in the current network forces G = kInf
  // (w(u,x) >= d_cur(x) - G would otherwise be vacuously violated), which
  // disables the current floor below.
  const std::vector<double>* cur = options.current_dist;
  GNCG_DASSERT(cur == nullptr || cur->size() == static_cast<std::size_t>(n));
  double w_min_all = kInf;
  double w_out_min = kInf;
  double g_bound = -kInf;
  for (int v = 0; v < n; ++v) {
    if (v == u) continue;
    const double w = game.weight(u, v);
    if (!(w < kInf)) continue;
    w_min_all = std::min(w_min_all, w);
    if (!in_cand[static_cast<std::size_t>(v)])
      w_out_min = std::min(w_out_min, w);
    if (cur != nullptr) {
      const double d = (*cur)[static_cast<std::size_t>(v)];
      g_bound = std::max(g_bound, d < kInf ? d - w : kInf);
    }
  }
  const bool use_cur = cur != nullptr && g_bound < kInf;

  ApproxBrResult result;
  result.candidates = static_cast<int>(cand.size());
  result.strategy = NodeSet(n);
  const double empty_cost = dist_sum(base_dist);
  result.cost = empty_cost;
  result.evaluations = 1;

  // --- tier 1: greedy edge additions over the shortlist ------------------
  //
  // Probe each unused candidate with a checkpointed decrease-only repair,
  // commit the best strictly-improving addition, repeat until none.  At
  // most |C| rounds of |C| probes; each probe is one bounded repair plus an
  // O(n) aggregation.
  IncrementalSssp& sssp = scratch.sssp;
  sssp.reset(base_dist);
  NodeSet current(n);
  double current_cost = empty_cost;
  const auto environment_edges = [&](int x, auto&& visit) {
    env.for_neighbors(x, visit);
  };
  // Canonical evaluation of `current` + candidate v: re-sum the edge term
  // in increasing target order (br_search's contract), then the maintained
  // distance aggregation supplied by the caller.
  const auto edge_sum_with = [&](int v) {
    current.insert(v);
    double edge_sum = 0.0;
    current.for_each(
        [&](int t) { edge_sum += weight_row[static_cast<std::size_t>(t)]; });
    current.erase(v);
    return edge_sum;
  };
  if (options.repair_cap == 0) {
    for (;;) {
      int best_i = -1;
      double best_cost = current_cost;
      for (std::size_t i = 0; i < cand.size(); ++i) {
        const int v = cand[i];
        if (current.contains(v)) continue;
        const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
        sssp.relax_insert(v, cand_w[i], environment_edges);
        const double cost =
            game.alpha() * edge_sum_with(v) + dist_sum(sssp.dist());
        ++result.evaluations;
        if (improves(cost, best_cost)) {
          best_cost = cost;
          best_i = static_cast<int>(i);
        }
        sssp.rollback(mark);
      }
      if (best_i < 0) break;
      const int v = cand[static_cast<std::size_t>(best_i)];
      current.insert(v);
      sssp.relax_insert(v, cand_w[static_cast<std::size_t>(best_i)],
                        environment_edges);
      current_cost = best_cost;
    }
  } else {
    // Bounded-frontier greedy: probe every unused candidate under the
    // repair cap, score it by its exact cost when the repair ran to the
    // fixpoint and by the admissible floor
    //     alpha * edges + sum_t max(host(t), min(dist(t), F))
    // when it truncated at frontier key F (a certified lower bound, so a
    // probe scoring >= current_cost genuinely cannot improve and is
    // dropped).  Surviving probes are retried cheapest-estimate-first with
    // *full* repairs; the first exact strict improvement commits.  Only
    // winning candidates ever pay an uncapped flood -- the 49x
    // repair-to-base relaxation ratio of the PR 8 certify phase was
    // losing probes flooding a 10^5-node network.
    FrontierPolicy policy;
    policy.node_cap = options.repair_cap;
    std::vector<std::pair<double, int>>& rank = scratch.probe_rank;
    for (;;) {
      rank.clear();
      for (std::size_t i = 0; i < cand.size(); ++i) {
        const int v = cand[i];
        if (current.contains(v)) continue;
        // Adaptive radius: truncate in the candidate's own scale (frontier
        // keys start at the inserted edge's weight, so any scale >= 1
        // leaves room to propagate) with the write cap as backstop.
        policy.radius = options.repair_radius_scale > 0.0
                            ? options.repair_radius_scale * cand_w[i]
                            : kInf;
        const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
        const RepairOutcome probe =
            sssp.relax_insert(v, cand_w[i], policy, environment_edges);
        double estimate;
        if (probe.truncated) {
          estimate = game.alpha() * edge_sum_with(v) +
                     tight_floor_sum(host_row, sssp.dist(),
                                     probe.frontier_min);
          GNCG_COUNT(kLadderBoundedProbes);
        } else {
          estimate =
              game.alpha() * edge_sum_with(v) + dist_sum(sssp.dist());
        }
        ++result.evaluations;
        if (improves(estimate, current_cost))
          rank.emplace_back(estimate, static_cast<int>(i));
        sssp.rollback(mark);
      }
      std::sort(rank.begin(), rank.end());
      bool committed = false;
      for (const auto& [estimate, ri] : rank) {
        const std::size_t i = static_cast<std::size_t>(ri);
        const int v = cand[i];
        const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
        sssp.relax_insert(v, cand_w[i], environment_edges);
        const double cost =
            game.alpha() * edge_sum_with(v) + dist_sum(sssp.dist());
        ++result.evaluations;
        if (improves(cost, current_cost)) {
          current.insert(v);
          current_cost = cost;
          committed = true;
          break;
        }
        sssp.rollback(mark);
      }
      if (!committed) break;
    }
  }
  if (improves(current_cost, result.cost)) {
    result.cost = current_cost;
    result.strategy = current;
  }
  result.tier = 1;

  // Tier-1 certificate: any non-empty strategy pays at least the cheapest
  // edge plus the per-node distance floor; the empty strategy costs
  // empty_cost.  With the caller's current-network row the floor folds in
  // d_cur(t) - G (current_floor_sum); without it this is the PR 7 bound.
  const double dist_floor =
      use_cur ? current_floor_sum(host_row, base_dist, *cur, w_min_all,
                                  g_bound)
              : tight_floor_sum(host_row, base_dist, w_min_all);
  const double floor_any =
      w_min_all < kInf ? game.alpha() * w_min_all + dist_floor : kInf;
  const double any_lb = std::min(empty_cost, floor_any);
  result.lower_bound = any_lb;
  result.beta = beta_of(result.cost, result.lower_bound);
  result.exact = !improves(result.lower_bound, result.cost);
  if (result.exact) result.beta = 1.0;

  if (!result.exact) {
    // --- tier 2: exact search restricted to the shortlist ----------------
    //
    // Shares the ladder's base vector (no second base Dijkstra) and, under
    // a repair cap, runs the bounded branch-and-bound: br.cost is then a
    // certified lower bound on the restricted optimum whenever
    // br.truncated, and the adopted strategy is re-costed by full repairs
    // below, so result.cost stays an achieved cost.
    BestResponseOptions restricted;
    restricted.incumbent = result.cost;
    restricted.restrict_targets = &cand;
    restricted.base_dist = &base_dist;
    restricted.repair_cap = options.repair_cap;
    const BestResponseResult br = br_search_sum(env, restricted);
    result.evaluations += br.evaluations;
    if (br.improved) {
      if (br.truncated) {
        // Re-cost the winning strategy exactly: full repairs from the base
        // vector converge to the least fixpoint regardless of insertion
        // order, so this matches the unbounded search's evaluation of the
        // same subset bitwise.
        sssp.reset(base_dist);
        double edge_sum = 0.0;
        br.strategy.for_each([&](int v) {
          const double w = weight_row[static_cast<std::size_t>(v)];
          edge_sum += w;
          sssp.relax_insert(v, w, environment_edges);
        });
        const double achieved =
            game.alpha() * edge_sum + dist_sum(sssp.dist());
        ++result.evaluations;
        if (improves(achieved, result.cost)) {
          result.cost = achieved;
          result.strategy = br.strategy;
        }
      } else {
        result.cost = br.cost;
        result.strategy = br.strategy;
      }
    }
    result.tier = 2;

    // Certificate composition.  Inside the shortlist every strategy costs
    // at least restricted_lb = min(br.cost, tier-1 cost): br.cost is the
    // restricted optimum when exact, an admissible bound on it when the
    // search was bounded, and a no-improvement outcome certifies the
    // incumbent (the tier-1 cost) as the restricted floor.  Every escaping
    // strategy pays alpha * w_out_min plus the distance floor.  The
    // any-strategy tier-1 bound still applies, and the final bound is
    // clamped to the achieved cost (a lower bound above it is vacuous).
    const double restricted_lb = std::min(br.cost, restricted.incumbent);
    const double escape_lb =
        w_out_min < kInf ? game.alpha() * w_out_min + dist_floor : kInf;
    double lb = std::min(restricted_lb, escape_lb);
    lb = std::max(lb, any_lb);
    lb = std::min(lb, result.cost);
    result.exact = !improves(lb, result.cost);
    result.lower_bound = lb;
    result.beta = result.exact ? 1.0 : beta_of(result.cost, result.lower_bound);
    GNCG_IF_INSTRUMENT(if (result.exact) GNCG_COUNT(kLadderEscapeExact);)
  }

  result.improved = improves(result.cost, options.incumbent);
  GNCG_IF_INSTRUMENT(if (result.tier == 1) GNCG_COUNT(kLadderTier1Final);
                     else GNCG_COUNT(kLadderTier2Final);)
  return result;
}

}  // namespace

ApproxBrResult approx_best_response_ladder(const Game& game,
                                           const StrategyProfile& s, int u,
                                           const ApproxBrOptions& options) {
  const AgentEnvironment env(game, s, u);
  return ladder_over(env, options);
}

ApproxBrResult approx_best_response_ladder(const DeviationEngine& engine,
                                           int u,
                                           const ApproxBrOptions& options) {
  const AgentEnvironment env(engine, u);
  return ladder_over(env, options);
}

std::vector<CertifiedAgent> certify_agents(DeviationEngine& engine,
                                           const std::vector<int>& agents,
                                           const ApproxBrOptions& options) {
  GNCG_COUNT(kLadderBatchCalls);
  GNCG_COUNT_N(kLadderBatchAgents, agents.size());
  std::vector<CertifiedAgent> out(agents.size());
  if (agents.empty()) return out;

  // Spatial-locality processing order: grid cell on euclidean hosts (the
  // oracle's index, built on first candidate query), host distance to the
  // first agent otherwise.  Consecutive ladders then touch overlapping
  // adjacency/neighborhood data.  Results return in input order.
  const Game& game = engine.game();
  std::vector<std::pair<double, std::size_t>> schedule;
  schedule.reserve(agents.size());
  const SpatialIndex* index = nullptr;
  if (game.host().backend().kind() == HostBackendKind::kEuclidean) {
    const auto& euclid =
        static_cast<const EuclideanHostBackend&>(game.host().backend());
    index = euclid.spatial_index();
    if (index == nullptr) {
      // Build the grid with a throwaway query so the schedule can use it.
      std::vector<int> warmup;
      euclid.candidate_targets(agents.front(), 1, warmup);
      index = euclid.spatial_index();
    }
  }
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const double key =
        index != nullptr
            ? static_cast<double>(index->cell_of(agents[i]))
            : game.host_distance(agents.front(), agents[i]);
    schedule.emplace_back(key, i);
  }
  std::sort(schedule.begin(), schedule.end());

  for (const auto& [key, i] : schedule) {
    const int u = agents[i];
    ApproxBrOptions per = options;
    // Lazy per-agent warm: agent_cost materializes exactly u's row (a full
    // warm pass would be O(n^2) memory at large n -- only the sampled
    // agents' current-network rows may ever exist).  The reference stays
    // valid through the ladder call: nothing below mutates the profile.
    per.incumbent = engine.agent_cost(u);
    per.current_dist = &engine.distances(u);
    out[i].agent = u;
    out[i].current_cost = per.incumbent;
    out[i].result = approx_best_response_ladder(engine, u, per);
  }
  return out;
}

}  // namespace gncg
