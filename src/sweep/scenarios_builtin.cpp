#include "sweep/scenarios_builtin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "constructions/ratio_constructions.hpp"
#include "core/approx_br.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/equilibrium.hpp"
#include "core/equilibrium_search.hpp"
#include "core/poa.hpp"
#include "core/profile_gen.hpp"
#include "core/restarts.hpp"
#include "core/social_optimum.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace gncg {

HostGraph make_sweep_host(const SweepPoint& point, Rng& rng) {
  GNCG_CHECK(point.n >= 2, "sweep host needs n >= 2, got " << point.n);
  if (point.host == "tree")
    return HostGraph::from_tree(random_tree(point.n, rng, 1.0, 10.0));
  if (point.host == "euclidean")
    return HostGraph::from_points(uniform_points(point.n, 2, 1000.0, rng),
                                  point.norm_p);
  GNCG_CHECK(point.host == "dense" || point.host == "lazy",
             "unknown sweep host kind " << point.host);
  HostGraph host = random_one_two_host(point.n, 0.5, rng);
  if (point.host == "lazy")
    host = HostGraph::from_weights_lazy(host.weights(), ModelClass::kOneTwo);
  return host;
}

namespace {

// --- fig3_onetwo_poa ------------------------------------------------------

/// Equilibrium certification level by instance size (matching what the
/// bench always reported: exact NE check to N=2, greedy to N=4, "-" above).
std::string fig3_check(const RatioConstruction& c, int N) {
  if (N <= 2)
    return is_nash_equilibrium(c.game, c.equilibrium) ? "exact NE" : "NOT NE";
  if (N <= 4)
    return is_greedy_equilibrium(c.game, c.equilibrium) ? "greedy eq"
                                                        : "NOT GE";
  return "-";
}

ScenarioResult run_fig3(const SweepPoint& point, Rng&) {
  const int N = point.n;
  GNCG_CHECK(N >= 2, "fig3_onetwo_poa needs N >= 2");
  const double alpha = point.alpha;
  const double limit =
      alpha == 1.0 ? 1.5 : 3.0 / (alpha + 2.0);  // Theorem 8 limit
  const auto c = theorem8_construction(N, alpha);
  const double measured = social_cost(c.game, c.equilibrium) /
                          network_social_cost(c.game, c.optimum);
  ScenarioRow row;
  row.metric("N", N)
      .metric("n_nodes", c.game.node_count())
      .metric("measured_ratio", measured)
      .metric("paper_limit", limit)
      .metric("gap_to_limit", limit - measured)
      .tag("equilibrium_check", fig3_check(c, N));
  return {{std::move(row)}};
}

// --- fig10_dimension ------------------------------------------------------

ScenarioResult run_fig10(const SweepPoint& point, Rng&) {
  const int d = point.n;
  GNCG_CHECK(d >= 1, "fig10_dimension needs dimension d >= 1");
  // The Theorem 19 construction is inherently 1-norm; accepting any other
  // p would journal records labeled with a norm the computation never used.
  GNCG_CHECK(point.norm_p == 1.0,
             "fig10_dimension is a 1-norm construction; plan it with "
             "norm_ps = {1.0}, got p = "
                 << point.norm_p);
  const double alpha = point.alpha;
  const auto c = theorem19_construction(d, alpha);
  const double measured = social_cost(c.game, c.equilibrium) /
                          network_social_cost(c.game, c.optimum);
  const double formula = paper::theorem19_lower(alpha, d);
  std::string check = "-";
  if (d <= 4)
    check = is_nash_equilibrium(c.game, c.equilibrium) ? "exact NE" : "NOT NE";
  const double scale =
      std::max({1.0, std::abs(formula), std::abs(measured)});
  ScenarioRow row;
  row.metric("d", d)
      .metric("n_nodes", 2 * d + 1)
      .metric("measured_ratio", measured)
      .metric("paper_formula", formula)
      .metric("metric_limit", paper::metric_poa(alpha))
      .tag("ne_check", check)
      .tag("agreement",
           std::abs(measured - formula) <= 1e-6 * scale ? "ok" : "MISMATCH");
  return {{std::move(row)}};
}

// --- br_dynamics ----------------------------------------------------------

double engine_social_cost(DeviationEngine& engine) {
  engine.warm_distances();
  double total = 0.0;
  for (int u = 0; u < engine.game().node_count(); ++u)
    total += engine.agent_cost_warm(u);
  return total;
}

ScenarioResult run_br_dynamics(const SweepPoint& point, Rng& rng) {
  const int rounds = point.count_or<int>("rounds", 3.0);
  const int agents = point.count_or<int>("agents", 64.0);
  GNCG_CHECK(rounds >= 1 && agents >= 1,
             "br_dynamics needs rounds >= 1 and agents >= 1");

  const Stopwatch construct_timer;
  const Game game(make_sweep_host(point, rng), point.alpha);
  DeviationEngine engine(game, recursive_tree_profile(game, rng));
  const double construct_ms = construct_timer.millis();

  // Exactly min(agents, n) distinct agents, evenly spaced over the whole id
  // range (u_i = i*n/agents is strictly increasing while agents <= n).
  const int per_round = std::min(agents, point.n);
  ScenarioResult result;
  for (int round = 0; round < rounds; ++round) {
    const Stopwatch round_timer;
    int improved = 0;
    for (int i = 0; i < per_round; ++i) {
      const int u = static_cast<int>(
          (static_cast<long long>(i) * point.n) / per_round);
      const auto move = engine.best_single_move(u);
      if (move.improved) {
        ++improved;
        engine.apply_move(u, move.move);
      }
    }
    const double social = engine_social_cost(engine);
    ScenarioRow row;
    row.metric("round", round)
        .metric("social_cost", social)
        .metric("agents_scanned", per_round)
        .metric("agents_improved", improved)
        .metric("construct_ms", round == 0 ? construct_ms : 0.0)
        .metric("elapsed_ms", round_timer.millis());
    result.rows.push_back(std::move(row));
  }
  return result;
}

// --- br_certify -----------------------------------------------------------

ScenarioResult run_br_certify(const SweepPoint& point, Rng& rng) {
  const int settle_rounds = point.count_or<int>("settle_rounds", 2.0);
  const Game game(make_sweep_host(point, rng), point.alpha);
  DeviationEngine engine(game, recursive_tree_profile(game, rng));

  // Settle with best-single-move rounds first, so certification runs
  // against a near-equilibrium profile (the paper's certification shape).
  for (int round = 0; round < settle_rounds; ++round) {
    for (int u = 0; u < point.n; ++u) {
      const auto move = engine.best_single_move(u);
      if (move.improved) engine.apply_move(u, move.move);
    }
  }

  // Full-mode exact best response per agent (incumbent-bounded, no
  // first-improvement stop): its evaluation counts are deterministic at any
  // thread count, which journaled metrics must be -- the first-improvement
  // fan-out's early abort makes that mode's work counter timing-dependent.
  const Stopwatch timer;
  int improving = 0;
  double evaluations = 0.0;
  double max_gain = 0.0;
  for (int u = 0; u < point.n; ++u) {
    BestResponseOptions options;
    options.incumbent = engine.agent_cost(u);
    const auto br = exact_best_response(engine, u, options);
    evaluations += static_cast<double>(br.evaluations);
    if (br.improved) {
      ++improving;
      if (options.incumbent < kInf)
        max_gain = std::max(max_gain, options.incumbent - br.cost);
    }
  }

  ScenarioRow row;
  row.metric("agents", point.n)
      .metric("settle_rounds", settle_rounds)
      .metric("improving_agents", improving)
      .metric("br_evaluations", evaluations)
      .metric("max_gain", max_gain)
      .metric("social_cost", engine_social_cost(engine))
      .metric("certify_ms", timer.millis())
      .tag("certified", improving == 0 ? "NE" : "not NE");
  return {{std::move(row)}};
}

// --- poa_random -----------------------------------------------------------

ScenarioResult run_poa_random(const SweepPoint& point, Rng& rng) {
  const int attempts = point.count_or<int>("attempts", 20.0);
  GNCG_CHECK(attempts >= 1, "poa_random needs attempts >= 1");
  const Game game(make_sweep_host(point, rng), point.alpha);
  const bool exact = point.n <= 5;

  EquilibriumSet equilibria;
  double opt_cost = 0.0;
  if (exact) {
    equilibria = enumerate_nash_equilibria(game);
    opt_cost = exact_social_optimum(game).cost.total();
  } else {
    SamplingOptions options;
    options.attempts = attempts;
    options.seed = rng();
    options.verify_exact_ne = point.n <= 9;
    equilibria = sample_equilibria(game, options);
    opt_cost = local_search_optimum(game).cost.total();
  }
  const auto estimate = estimate_poa(equilibria, opt_cost, exact);
  const double bound = paper::metric_poa(point.alpha);

  ScenarioRow row;
  row.metric("ne_count", static_cast<double>(equilibria.profiles.size()))
      .metric("opt_cost", opt_cost)
      .metric("poa", estimate.poa)
      .metric("pos", estimate.pos)
      .metric("paper_bound", bound)
      .tag("mode", exact ? "exact" : "sampled")
      .tag("bound_holds", equilibria.empty()
                              ? "no NE found"
                              : (estimate.poa <= bound + 1e-6 ? "yes" : "NO"));
  return {{std::move(row)}};
}

// --- optimum_gap ----------------------------------------------------------

ScenarioResult run_optimum_gap(const SweepPoint& point, Rng& rng) {
  const Game game(make_sweep_host(point, rng), point.alpha);
  const auto mst = mst_network(game);
  const auto local = local_search_optimum(game);
  const double lower = social_optimum_lower_bound(game);

  ScenarioRow row;
  row.metric("local_search_cost", local.cost.total())
      .metric("mst_cost", mst.cost.total())
      .metric("lower_bound", lower)
      .metric("gap_ratio", lower > 0.0 ? local.cost.total() / lower
                                       : std::numeric_limits<double>::quiet_NaN())
      .metric("mst_gap_ratio", local.cost.total() > 0.0
                                   ? mst.cost.total() / local.cost.total()
                                   : std::numeric_limits<double>::quiet_NaN())
      .metric("edges", static_cast<double>(local.edges.size()));
  return {{std::move(row)}};
}

// --- ne_sampling / fip_probe (dynamics kernel) ----------------------------

/// Canonical scheduler / move-rule axes for the dynamics scenarios.  A
/// plan's numeric "schedulers" / "rules" extras select a *prefix* of these
/// (extras are doubles, so axes are encoded as prefix lengths of a fixed
/// order); each selected combination yields one result row tagged with the
/// policy names.
constexpr SchedulerKind kSchedulerAxis[] = {
    SchedulerKind::kRoundRobin, SchedulerKind::kSoftmaxGain,
    SchedulerKind::kMaxGain, SchedulerKind::kFairnessBounded,
    SchedulerKind::kRandomOrder};
constexpr MoveRule kRuleAxis[] = {MoveRule::kBestSingleMove,
                                  MoveRule::kBestResponse,
                                  MoveRule::kUmflResponse};

int axis_prefix(const SweepPoint& point, const char* name, double fallback,
                int limit) {
  const int count = point.count_or<int>(name, fallback);
  GNCG_CHECK(count >= 1 && count <= limit,
             point.scenario << " needs 1 <= " << name << " <= " << limit
                            << ", got " << count);
  return count;
}

ScenarioResult run_ne_sampling(const SweepPoint& point, Rng& rng) {
  const int restarts = point.count_or<int>("restarts", 12.0);
  const auto max_moves = point.count_or<std::uint64_t>("max_moves", 2000.0);
  const int schedulers = axis_prefix(point, "schedulers", 2.0, 5);
  const int rules = axis_prefix(point, "rules", 1.0, 3);
  GNCG_CHECK(restarts >= 1 && max_moves >= 1,
             "ne_sampling needs restarts >= 1 and max_moves >= 1");

  const Game game(make_sweep_host(point, rng), point.alpha);
  // One base seed for every combination: each scheduler x rule combo faces
  // the identical start-profile sequence (label and seed pin the streams),
  // so rows compare policies, not luck.
  const std::uint64_t base_seed = rng();
  const bool verify_exact = point.n <= 9;

  ScenarioResult result;
  for (int si = 0; si < schedulers; ++si) {
    for (int ri = 0; ri < rules; ++ri) {
      RestartOptions restart_options;
      restart_options.restarts = restarts;
      restart_options.seed = base_seed;
      restart_options.label = "ne_sampling";
      restart_options.dynamics.scheduler = kSchedulerAxis[si];
      restart_options.dynamics.rule = kRuleAxis[ri];
      restart_options.dynamics.max_moves = max_moves;
      restart_options.dynamics.detect_cycles = true;
      restart_options.dynamics.record_steps = false;
      const Stopwatch timer;
      const RestartReport report = run_restarts(game, restart_options);

      // Distinct converged profiles (exact NE check up to n = 9, the
      // poa_random threshold; beyond that the move rule is the evidence).
      const EquilibriumSet distinct =
          collect_distinct_equilibria(game, report, verify_exact);

      ScenarioRow row;
      row.metric("restarts", restarts)
          .metric("converged", static_cast<double>(report.converged))
          .metric("cycles", static_cast<double>(report.cycles_found))
          .metric("distinct_ne", static_cast<double>(distinct.profiles.size()))
          .metric("mean_moves", report.moves_to_convergence.count() > 0
                                    ? report.moves_to_convergence.mean()
                                    : 0.0)
          .metric("median_moves", report.moves_to_convergence.count() > 0
                                      ? report.moves_to_convergence.median()
                                      : 0.0);
      if (!distinct.empty())
        row.metric("best_social", distinct.min_cost())
            .metric("worst_social", distinct.max_cost());
      row.metric("elapsed_ms", timer.millis())
          .tag("scheduler", std::string(scheduler_name(kSchedulerAxis[si])))
          .tag("rule", std::string(move_rule_name(kRuleAxis[ri])))
          .tag("ne_check", verify_exact ? "exact" : "rule");
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

ScenarioResult run_fip_probe(const SweepPoint& point, Rng& rng) {
  const int restarts = point.count_or<int>("restarts", 16.0);
  const auto max_moves = point.count_or<std::uint64_t>("max_moves", 600.0);
  const int schedulers = axis_prefix(point, "schedulers", 2.0, 5);
  GNCG_CHECK(restarts >= 1 && max_moves >= 1,
             "fip_probe needs restarts >= 1 and max_moves >= 1");

  const Game game(make_sweep_host(point, rng), point.alpha);
  const std::uint64_t base_seed = rng();

  ScenarioResult result;
  for (int si = 0; si < schedulers; ++si) {
    RestartOptions restart_options;
    restart_options.restarts = restarts;
    restart_options.seed = base_seed;
    restart_options.label = "fip_probe";
    restart_options.dynamics.rule = MoveRule::kBestResponse;
    restart_options.dynamics.scheduler = kSchedulerAxis[si];
    restart_options.dynamics.max_moves = max_moves;
    restart_options.dynamics.detect_cycles = true;
    restart_options.verify_cycles = true;
    const Stopwatch timer;
    const RestartReport report = run_restarts(game, restart_options);

    double first_cycle_length = 0.0;
    for (const RestartRun& run : report.runs) {
      if (run.cycle_verified) {
        first_cycle_length = static_cast<double>(run.result.cycle_length);
        break;
      }
    }

    ScenarioRow row;
    row.metric("restarts", restarts)
        .metric("converged", static_cast<double>(report.converged))
        .metric("cycles_found", static_cast<double>(report.cycles_found))
        .metric("cycles_verified",
                static_cast<double>(report.cycles_verified))
        .metric("first_cycle_length", first_cycle_length)
        .metric("mean_moves", report.moves_to_convergence.count() > 0
                                  ? report.moves_to_convergence.mean()
                                  : 0.0)
        .metric("hash_collisions",
                static_cast<double>(report.hash_collisions))
        .metric("elapsed_ms", timer.millis())
        .tag("scheduler", std::string(scheduler_name(kSchedulerAxis[si])))
        .tag("rule", "best_response")
        .tag("fip_witness", report.cycles_verified > 0 ? "cycle" : "none");
    result.rows.push_back(std::move(row));
  }
  return result;
}

// --- parallel_mgm ---------------------------------------------------------

/// Round-based sharded MGM vs the sequential schedulers on identical
/// restart streams: does committing a conflict-free batch per round reach
/// equilibria in fewer rounds, and at what move overhead?  One row per
/// scheduler x rule combo; the MGM rows additionally report the achieved
/// round parallelism (mean commits per round, max batch).
ScenarioResult run_parallel_mgm(const SweepPoint& point, Rng& rng) {
  const int restarts = point.count_or<int>("restarts", 8.0);
  const auto max_moves = point.count_or<std::uint64_t>("max_moves", 2000.0);
  const int rules = axis_prefix(point, "rules", 1.0, 3);
  const int shards = point.count_or<int>("shards", 0.0);
  GNCG_CHECK(restarts >= 1 && max_moves >= 1,
             "parallel_mgm needs restarts >= 1 and max_moves >= 1");

  const Game game(make_sweep_host(point, rng), point.alpha);
  // One base seed across schedulers: every row faces the identical
  // start-profile streams, so rows compare round semantics, not luck.
  const std::uint64_t base_seed = rng();
  constexpr SchedulerKind kCompared[] = {SchedulerKind::kParallelMgm,
                                         SchedulerKind::kMaxGain,
                                         SchedulerKind::kRoundRobin};

  ScenarioResult result;
  for (const SchedulerKind scheduler : kCompared) {
    for (int ri = 0; ri < rules; ++ri) {
      RestartOptions restart_options;
      restart_options.restarts = restarts;
      restart_options.seed = base_seed;
      restart_options.label = "parallel_mgm";
      restart_options.dynamics.scheduler = scheduler;
      restart_options.dynamics.rule = kRuleAxis[ri];
      restart_options.dynamics.max_moves = max_moves;
      restart_options.dynamics.mgm_shards = shards;
      restart_options.dynamics.detect_cycles = true;
      restart_options.dynamics.record_steps = false;
      const Stopwatch timer;
      const RestartReport report = run_restarts(game, restart_options);

      SampleStats rounds_to_convergence;
      std::uint64_t total_moves = 0;
      std::uint64_t total_rounds = 0;
      std::size_t max_batch = 0;
      for (const RestartRun& run : report.runs) {
        if (run.result.converged)
          rounds_to_convergence.add(
              static_cast<double>(run.result.rounds));
        total_moves += run.result.moves;
        total_rounds += run.result.rounds;
        max_batch = std::max(max_batch, run.result.max_round_commits);
      }

      ScenarioRow row;
      row.metric("restarts", restarts)
          .metric("converged", static_cast<double>(report.converged))
          .metric("cycles", static_cast<double>(report.cycles_found))
          .metric("mean_moves", report.moves_to_convergence.count() > 0
                                    ? report.moves_to_convergence.mean()
                                    : 0.0)
          .metric("mean_rounds", rounds_to_convergence.count() > 0
                                     ? rounds_to_convergence.mean()
                                     : 0.0)
          .metric("commits_per_round",
                  total_rounds > 0 ? static_cast<double>(total_moves) /
                                         static_cast<double>(total_rounds)
                                   : 0.0)
          .metric("max_round_commits", static_cast<double>(max_batch))
          .metric("elapsed_ms", timer.millis())
          .tag("scheduler", std::string(scheduler_name(scheduler)))
          .tag("rule", std::string(move_rule_name(kRuleAxis[ri])));
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

// --- approx_ne ------------------------------------------------------------

/// Large-n geometric tier: approximate-better-response dynamics under the
/// approx-ladder move rule, then a per-agent (beta, eps) certificate on the
/// reached profile.  Every per-agent bound comes from the ladder's
/// admissible escape lower bound (core/approx_br.hpp), so the reported
/// max_beta / max_eps are *certified*: no agent can gain more than factor
/// max_beta (additive max_eps) by any unrestricted deviation.  Euclidean
/// hosts only -- the whole point is the spatial oracle's shortlist, and the
/// scenario asserts the run never materialized a dense O(n^2) matrix.
ScenarioResult run_approx_ne(const SweepPoint& point, Rng& rng) {
  const int restarts = point.count_or<int>("restarts", 2.0);
  const auto max_moves = point.count_or<std::uint64_t>("max_moves", 200.0);
  const int budget = point.count_or<int>("budget", 16.0);
  const int certify_count = point.count_or<int>("certify_agents", 64.0);
  const auto repair_cap = point.count_or<std::size_t>("repair_cap", 0.0);
  const bool verify_unbounded = point.count_or<bool>("verify_unbounded", 0.0);
  GNCG_CHECK(restarts >= 1 && max_moves >= 1 && budget >= 1 &&
                 certify_count >= 1,
             "approx_ne needs restarts, max_moves, budget and "
             "certify_agents >= 1");
  GNCG_CHECK(point.host == "euclidean",
             "approx_ne is the large-n geometric tier; plan it with "
             "hosts = {\"euclidean\"}, got " << point.host);

  const std::uint64_t dense_cells_before =
      DistanceMatrix::allocated_cells_total();
  const Game game(make_sweep_host(point, rng), point.alpha);

  RestartOptions restart_options;
  restart_options.restarts = restarts;
  restart_options.seed = rng();
  restart_options.label = "approx_ne";
  // O(n) start profiles: the default spanning-random family draws
  // Theta(n^2) extra edges, which dwarfs the game itself at n >= 10^4.
  restart_options.start = StartProfileKind::kRecursiveTree;
  restart_options.dynamics.rule = MoveRule::kApproxLadder;
  restart_options.dynamics.scheduler = SchedulerKind::kRoundRobin;
  restart_options.dynamics.max_moves = max_moves;
  restart_options.dynamics.approx_budget = budget;
  restart_options.dynamics.approx_repair_cap = repair_cap;
  restart_options.dynamics.detect_cycles = true;
  restart_options.dynamics.record_steps = false;
  const Stopwatch dynamics_timer;
  const RestartReport report = run_restarts(game, restart_options);
  const double dynamics_ms = dynamics_timer.millis();

  double total_moves = 0.0;
  const RestartRun* certified_run = nullptr;
  for (const RestartRun& run : report.runs) {
    if (run.skipped) continue;
    total_moves += static_cast<double>(run.result.moves);
    if (certified_run == nullptr) certified_run = &run;
  }
  GNCG_CHECK(certified_run != nullptr, "approx_ne ran no restart");

  // Certify the first run's reached profile through the batched certifier:
  // one warmed engine shared across the sampled agents (evenly spaced ids,
  // the br_dynamics convention), each ladder seeded with the agent's cached
  // current-network row.  The ladder's lower bound LB_u on the unrestricted
  // best response gives beta_u = cost_u / LB_u, eps_u = cost_u - LB_u.
  const Stopwatch certify_timer;
  DeviationEngine engine(game, certified_run->result.final_profile);
  const int per = std::min(certify_count, point.n);
  std::vector<int> agent_ids;
  agent_ids.reserve(static_cast<std::size_t>(per));
  for (int i = 0; i < per; ++i)
    agent_ids.push_back(
        static_cast<int>((static_cast<long long>(i) * point.n) / per));
  ApproxBrOptions certify_options;
  certify_options.budget = budget;
  certify_options.repair_cap = repair_cap;
  const std::vector<CertifiedAgent> certified =
      certify_agents(engine, agent_ids, certify_options);
  double max_beta = 1.0;
  double beta_sum = 0.0;
  double max_eps = 0.0;
  int improving = 0;
  int certified_exact = 0;
  int tier2 = 0;
  int verified = 0;
  for (const CertifiedAgent& ca : certified) {
    const ApproxBrResult& ladder = ca.result;
    const double beta_u =
        ladder.lower_bound > 0.0 && ca.current_cost < kInf
            ? ca.current_cost / ladder.lower_bound
            : 1.0;
    const double eps_u =
        ca.current_cost < kInf && ladder.lower_bound < kInf
            ? std::max(0.0, ca.current_cost - ladder.lower_bound)
            : 0.0;
    max_beta = std::max(max_beta, beta_u);
    beta_sum += beta_u;
    max_eps = std::max(max_eps, eps_u);
    if (ladder.improved) ++improving;
    if (ladder.exact) ++certified_exact;
    if (ladder.tier >= 2) ++tier2;

    // Differential gate (verify_unbounded=1): every certified agent is
    // re-run with the cap off.  Both ladders' lower bounds under-bound the
    // true optimum and both costs upper-bound it, so the cross inequalities
    // must hold; and wherever the bounded ladder claimed exactness the
    // unbounded ladder must achieve the byte-equal cost (both then equal
    // the unrestricted best-response cost) -- any violation means a broken
    // truncation certificate.
    if (verify_unbounded && repair_cap > 0) {
      ApproxBrOptions unbounded = certify_options;
      unbounded.repair_cap = 0;
      unbounded.incumbent = ca.current_cost;
      unbounded.current_dist = &engine.distances(ca.agent);
      const ApproxBrResult reference =
          approx_best_response_ladder(engine, ca.agent, unbounded);
      const double tol =
          kImproveEps *
          std::max(1.0, std::min(std::abs(ladder.cost),
                                 std::abs(reference.cost)));
      GNCG_CHECK(ladder.lower_bound <= reference.cost + tol,
                 "bounded lower bound " << ladder.lower_bound
                                        << " exceeds the unbounded cost "
                                        << reference.cost << " for agent "
                                        << ca.agent);
      GNCG_CHECK(reference.lower_bound <= ladder.cost + tol,
                 "unbounded lower bound " << reference.lower_bound
                                          << " exceeds the bounded cost "
                                          << ladder.cost << " for agent "
                                          << ca.agent);
      if (ladder.exact) {
        GNCG_CHECK(reference.cost == ladder.cost,
                   "bounded ladder claimed exact with cost "
                       << ladder.cost << " but the unbounded ladder achieved "
                       << reference.cost << " for agent " << ca.agent);
      }
      ++verified;
    }
  }
  const double certify_ms = certify_timer.millis();

  // The euclidean path must stay matrix-free end to end (the backend
  // contract); a nonzero delta means something materialized O(n^2) state.
  const double dense_cells_delta = static_cast<double>(
      DistanceMatrix::allocated_cells_total() - dense_cells_before);
  GNCG_CHECK(dense_cells_delta == 0.0,
             "approx_ne materialized a dense matrix ("
                 << dense_cells_delta << " cells) on the euclidean path");

  // The sample speaks for an equilibrium only when the certified run itself
  // converged: a run stopped by a detected cycle or the move cap can have
  // improving agents outside the sample, whatever the sample says.
  const DynamicsResult& stopped = certified_run->result;
  const char* equilibrium =
      stopped.cycle_found  ? "stopped on a cycle"
      : !stopped.converged ? "stopped at max_moves"
      : improving == 0     ? "approx NE (no improving agent sampled)"
                           : "not settled";

  ScenarioRow row;
  row.metric("restarts", restarts)
      .metric("budget", budget)
      .metric("repair_cap", static_cast<double>(repair_cap))
      .metric("verified_unbounded", verified)
      .metric("converged", static_cast<double>(report.converged))
      .metric("total_moves", total_moves)
      .metric("certified_agents", per)
      .metric("max_beta", max_beta)
      .metric("mean_beta", per > 0 ? beta_sum / per : 1.0)
      .metric("max_eps", max_eps)
      .metric("improving_agents", improving)
      .metric("certified_exact", certified_exact)
      .metric("tier2_certifications", tier2)
      .metric("dense_cells_delta", dense_cells_delta)
      .metric("dynamics_ms", dynamics_ms)
      .metric("certify_ms", certify_ms)
      .tag("rule", "approx_ladder")
      .tag("equilibrium", equilibrium);
  return {{std::move(row)}};
}

/// build_host hook shared by the random-game scenarios.
std::optional<HostGraph> sweep_host_of(const SweepPoint& point, Rng& rng) {
  return make_sweep_host(point, rng);
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(std::make_shared<FunctionScenario>(
      "fig3_onetwo_poa",
      "Figure 3 / Theorem 8: 1-2-GNCG PoA lower bound; n is the clique "
      "parameter N, the measured ratio approaches 3/(alpha+2) (3/2 at "
      "alpha=1)",
      std::vector<std::string>{"dense"}, std::vector<ScenarioParam>{},
      run_fig3));
  registry.add(std::make_shared<FunctionScenario>(
      "fig10_dimension",
      "Figure 10 / Theorem 19: 1-norm dimension sweep; n is the dimension "
      "d, ratio 1 + a/(2 + a/(2d-1)) approaches the metric bound (a+2)/2",
      std::vector<std::string>{"euclidean"}, std::vector<ScenarioParam>{},
      run_fig10));
  registry.add(std::make_shared<FunctionScenario>(
      "br_dynamics",
      "best-single-move dynamics rounds over a random host with a cached "
      "deviation engine (the poa_explorer sweep workload); one row per round",
      std::vector<std::string>{"dense", "lazy", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"rounds", 3.0, "activation rounds to run"},
          {"agents", 64.0, "agents scanned per round (evenly spaced)"}},
      run_br_dynamics, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "br_certify",
      "exact NE certification through the incremental best-response engine: "
      "settle with best-single-move rounds, then one incumbent-bounded "
      "exact BR per agent (deterministic evaluation counts)",
      std::vector<std::string>{"dense", "lazy", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"settle_rounds", 2.0, "best-single-move rounds before certifying"}},
      run_br_certify, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "poa_random",
      "PoA/PoS of random instances vs the paper bound (alpha+2)/2; exact "
      "NE enumeration and optimum for n <= 5, sampled dynamics beyond",
      std::vector<std::string>{"dense", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"attempts", 20.0, "dynamics restarts when sampling (n > 5)"}},
      run_poa_random, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "optimum_gap",
      "heuristic optimum quality: local-search social cost vs the "
      "admissible lower bound and the MST baseline",
      std::vector<std::string>{"dense", "euclidean", "tree"},
      std::vector<ScenarioParam>{}, run_optimum_gap, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "ne_sampling",
      "distinct Nash equilibria reached by parallel dynamics restarts "
      "(run_restarts kernel); one row per scheduler x move-rule combo, "
      "identical start profiles across combos",
      std::vector<std::string>{"dense", "lazy", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"restarts", 12.0, "dynamics restarts per combo"},
          {"max_moves", 2000.0, "move budget per restart"},
          {"schedulers", 2.0, "scheduler-axis prefix length (1-5)"},
          {"rules", 1.0, "move-rule-axis prefix length (1-3)"}},
      run_ne_sampling, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "fip_probe",
      "best-response cycle hunting via restart dynamics with hashed "
      "transposition cycle detection; one row per scheduler, found cycles "
      "replay-verified",
      std::vector<std::string>{"dense", "lazy", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"restarts", 16.0, "dynamics restarts per scheduler"},
          {"max_moves", 600.0, "move budget per restart"},
          {"schedulers", 2.0, "scheduler-axis prefix length (1-5)"}},
      run_fip_probe, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "parallel_mgm",
      "round-based sharded MGM dynamics vs the sequential max_gain / "
      "round_robin schedulers on identical restart streams; one row per "
      "scheduler x rule combo with rounds-to-convergence and achieved "
      "round parallelism",
      std::vector<std::string>{"dense", "lazy", "euclidean", "tree"},
      std::vector<ScenarioParam>{
          {"restarts", 8.0, "dynamics restarts per combo"},
          {"max_moves", 2000.0, "move budget per restart"},
          {"rules", 1.0, "move-rule-axis prefix length (1-3)"},
          {"shards", 0.0, "MGM agent shards per round (0 = auto n/16)"}},
      run_parallel_mgm, sweep_host_of));
  registry.add(std::make_shared<FunctionScenario>(
      "approx_ne",
      "large-n geometric tier: approx-ladder restart dynamics over the "
      "spatial candidate oracle, then per-agent (beta, eps) certification "
      "from the ladder's admissible escape bound; euclidean hosts only, "
      "asserted matrix-free",
      std::vector<std::string>{"euclidean"},
      std::vector<ScenarioParam>{
          {"restarts", 2.0, "dynamics restarts"},
          {"max_moves", 200.0, "move budget per restart"},
          {"budget", 16.0, "spatial candidate budget per agent"},
          {"certify_agents", 64.0, "agents certified (evenly spaced)"},
          {"repair_cap", 0.0,
           "bounded-frontier repair cap per SSSP repair (0 = exact)"},
          {"verify_unbounded", 0.0,
           "re-run certified agents with cap 0, cross-check lower bounds "
           "and byte-equal exact costs (differential gate; 0 = off)"}},
      run_approx_ne, sweep_host_of));
}

}  // namespace gncg
