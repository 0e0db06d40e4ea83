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
  game.host().candidate_targets(u, budget, scratch.cand);
  GNCG_COUNT(kLadderCalls);
  GNCG_COUNT_N(kLadderCandidateBudget, static_cast<std::uint64_t>(budget));
  GNCG_COUNT_N(kLadderCandidates, scratch.cand.size());

  // One search setup for both tiers (core/br_search.hpp): the shortlist as
  // the search's candidates, the base vector, the host and weight rows, and
  // one facility row per candidate, built under the repair cap (exact with
  // cap 0).  Tier 1 ranks its probes by the rows; tier 2 searches the setup.
  BrSearchSetup& setup = arena.br().setup;
  prepare_br_setup(env, &scratch.cand, options.repair_cap, setup);
  setup.build_rows(env, setup.candidates.size());
  const std::vector<int>& cand = setup.candidates;
  const std::vector<double>& base_dist = setup.base;
  const std::vector<double>& host_row = setup.host_row;
  const ImprovementRows& rows = setup.rows;

  // One O(n) scan for the certification weights: the cheapest purchasable
  // edge overall (w_min_all, floor for *any* non-empty strategy), the
  // cheapest purchasable edge outside the shortlist (w_out_min, entry fee
  // of every escaping strategy; the weight row is kInf exactly off the
  // shortlist), and -- when the caller supplied the current-network row --
  // the G bound of the current-floor certificate.  A purchasable node
  // unreachable in the current network forces G = kInf (w(u,x) >= d_cur(x)
  // - G would otherwise be vacuously violated), which disables the current
  // floor below.
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
    if (!(setup.weight_row[static_cast<std::size_t>(v)] < kInf))
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
  const double empty_cost = SumCostModel::distance_term(base_dist);
  result.cost = empty_cost;
  result.evaluations = 1;

  // --- tier 1: greedy edge additions over the shortlist ------------------
  //
  // `sssp` holds the exact vector d of the committed strategy S.  A row
  // brackets the cost of adding its candidate x without any repair:
  // d_{S+x}(t) = min(d(t), c_x(t)) >= min(d(t), row_x(t), F_x), so
  //     alpha * edges + sum_t term_{F_x}(t, min(d(t), row_x(t)))
  // (RowFloor::with_row, O(row) per probe) is an admissible floor, and the
  // exact cost when the row is exact (F_x = kInf).  Estimates rank and skip
  // probes; a candidate is only adopted after a full exact repair shows a
  // strict improvement (canonical cost evaluation as in br_search).
  IncrementalSssp& sssp = scratch.sssp;
  sssp.reset(base_dist);
  NodeSet current(n);
  double current_cost = empty_cost;
  const auto environment_edges = [&](int x, auto&& visit) {
    env.for_neighbors(x, visit);
  };
  // Canonical edge sum of `current` + candidate v.
  const auto edge_sum_with = [&](int v) {
    current.insert(v);
    const double edge_sum = setup.edge_sum(current);
    current.erase(v);
    return edge_sum;
  };
  // Exact cost of `current` + cand[i], leaving the repair applied.
  const auto repaired_cost = [&](std::size_t i) {
    sssp.relax_insert(cand[i], setup.weights[i], environment_edges);
    ++result.evaluations;
    return game.alpha() * edge_sum_with(cand[i]) +
           SumCostModel::distance_term(sssp.dist());
  };
  std::vector<double>& thresholds = scratch.thresholds;
  const bool rows_exact = setup.rows_exact();
  if (rows_exact) {
    // Exact rows (always with cap 0): steepest descent, the historical rule
    // bit for bit, so a cap that never fires changes nothing.  Each round
    // scans the unused candidates in shortlist order and a strict
    // improvement over the round's best replaces it; a floor that cannot
    // beat the running best skips the candidate, which its exact cost could
    // not have done either.
    thresholds.assign(1, kInf);
    for (;;) {
      scratch.floors.build(host_row, sssp.dist(), thresholds);
      int best_i = -1;
      double best_cost = current_cost;
      for (std::size_t i = 0; i < cand.size(); ++i) {
        if (current.contains(cand[i])) continue;
        const double floor_cost =
            game.alpha() * edge_sum_with(cand[i]) +
            scratch.floors.with_row(kInf, rows.entries[i]).lo;
        ++result.evaluations;
        if (!improves(floor_cost, best_cost)) continue;
        const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
        const double cost = repaired_cost(i);
        sssp.rollback(mark);
        if (improves(cost, best_cost)) {
          best_cost = cost;
          best_i = static_cast<int>(i);
        }
      }
      if (best_i < 0) break;
      const std::size_t i = static_cast<std::size_t>(best_i);
      current.insert(cand[i]);
      sssp.relax_insert(cand[i], setup.weights[i], environment_edges);
      current_cost = best_cost;
    }
  } else {
    // Truncated rows: one pass in floor order (each candidate's floor alone
    // over the base vector), keeping every candidate whose exact repair
    // strictly improves.  The distance benefit of an edge only shrinks as
    // the strategy grows (facility location is submodular), so a candidate
    // rejected once would be rejected again: no later round is needed, and
    // each candidate pays at most one uncapped repair.
    thresholds.assign(rows.frontier.begin(), rows.frontier.end());
    scratch.floors.build(host_row, base_dist, thresholds);
    std::vector<std::pair<double, int>>& rank = scratch.probe_rank;
    rank.clear();
    for (std::size_t i = 0; i < cand.size(); ++i) {
      rank.emplace_back(
          game.alpha() * setup.weights[i] +
              scratch.floors.with_row(rows.frontier[i], rows.entries[i]).lo,
          static_cast<int>(i));
      ++result.evaluations;
    }
    std::sort(rank.begin(), rank.end());
    for (const auto& [floor_cost, ri] : rank) {
      const std::size_t i = static_cast<std::size_t>(ri);
      const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
      const double cost = repaired_cost(i);
      if (improves(cost, current_cost)) {
        current.insert(cand[i]);
        current_cost = cost;
      } else {
        sssp.rollback(mark);
      }
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
              : SumCostModel::tight_floor(host_row, base_dist, w_min_all);
  const double floor_any =
      w_min_all < kInf ? game.alpha() * w_min_all + dist_floor : kInf;
  const double any_lb = std::min(empty_cost, floor_any);
  result.lower_bound = any_lb;
  result.beta = beta_of(result.cost, result.lower_bound);
  result.exact = !improves(result.lower_bound, result.cost);
  if (result.exact) result.beta = 1.0;

  if (!result.exact && rows_exact) {
    // --- tier 2: exact search restricted to the shortlist ----------------
    //
    // Searches the ladder's setup (no second base Dijkstra, host scan or
    // row build).  Only exact rows merge into distance vectors, so a call
    // with a truncated row stops at tier 1 with tier 1's certificate.
    const double tier1_cost = result.cost;
    BestResponseResult br;
    br_search_sum(env, setup, tier1_cost, br);
    result.evaluations += br.evaluations;
    if (br.improved) {
      result.cost = br.cost;
      result.strategy = br.strategy;
    }
    result.tier = 2;

    // Certificate composition.  Inside the shortlist every strategy costs
    // at least restricted_lb = min(br.cost, tier-1 cost): br.cost is the
    // restricted optimum, and a no-improvement outcome certifies the
    // incumbent (the tier-1 cost) as the restricted floor.  Every escaping
    // strategy pays alpha * w_out_min plus the distance floor.  The
    // any-strategy tier-1 bound still applies, and the final bound is
    // clamped to the achieved cost (a lower bound above it is vacuous).
    const double restricted_lb = std::min(br.cost, tier1_cost);
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
