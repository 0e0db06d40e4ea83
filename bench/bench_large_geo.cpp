// Large-n geometric tier bench (recorded as BENCH_large_geo.json).
//
// Two sections:
//
//  * exact_vs_ladder (moderate n): per-agent cost of the exact
//    branch-and-bound best response vs the approximate-BR ladder
//    (core/approx_br.hpp) on the same euclidean games.  Exact BR is a
//    subset search -- worst-case exponential in the improving-target
//    count -- while one ladder step is a shortlist of `budget` spatial
//    candidates plus a restricted 2^budget search, i.e. polynomial in n
//    for fixed budget.  Soundness is asserted inline: the ladder's cost
//    upper-bounds the exact optimum and its escape lower bound
//    under-bounds it; a violation aborts the bench.
//
//  * large_tier (n = 10^4, 10^5): the regime the exact search cannot
//    touch.  Approx-ladder better-response dynamics over the spatial
//    candidate oracle (run_restarts, round-robin), then a certified
//    per-agent (beta, eps) sample on the reached profile: each sampled
//    agent's current cost divided by the ladder's admissible lower bound
//    (the escape bound after tier 2; tier 1's any-strategy bound for a
//    call whose capped rows truncated, which stops at tier 1).  Alongside the timings the section records the memory
//    story: DistanceMatrix::allocated_cells_total() must not move (the
//    euclidean path never materializes O(n^2) state -- a nonzero delta
//    aborts) and the worker-arena peak footprint is reported per node,
//    which stays O(deg) because every scratch buffer is O(n + edges).
//
// The process refuses to record numbers from a non-optimized build
// (--allow-debug overrides, never for recorded numbers).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <vector>

#include "bench_util.hpp"
#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/profile_gen.hpp"
#include "core/restarts.hpp"
#include "graph/distance_matrix.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace gncg {
namespace {

constexpr int kBudget = 8;       ///< spatial shortlist size per ladder call
constexpr double kAlpha = 100.0; ///< edge price for every game in the bench
/// Bounded-frontier repair cap for the large tier: every facility row the
/// ladder builds truncates after this many distance writes and tier 1
/// ranks candidates by the rows' certified floors; only adopted strategies
/// pay full repairs, and a call with a truncated row ends after tier 1.
/// 0 would restore the exact-row ladder bit for bit.
constexpr std::size_t kRepairCap = 2048;

Game make_geo_game(int n, Rng& rng) {
  return Game(HostGraph::from_points(uniform_points(n, 2, 1000.0, rng), 2.0),
              kAlpha);
}

/// Process-wide counter delta since `before` (all-zero under
/// GNCG_INSTRUMENT=OFF).  Phases are bracketed at quiescent points (after
/// pool joins), so the sums are exact.
instrument::CounterArray counters_since(const instrument::MetricsSnapshot&
                                            before) {
  return instrument::counters_delta(before, instrument::metrics_snapshot());
}

/// Emits a counter delta as one inline JSON object of the nonzero entries.
void print_counter_object(const instrument::CounterArray& counters) {
  std::printf("{");
  bool first = true;
  for (std::size_t i = 0; i < instrument::kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    std::printf("%s\"%s\": %llu", first ? "" : ", ",
                instrument::counter_name(static_cast<instrument::Counter>(i)),
                static_cast<unsigned long long>(counters[i]));
    first = false;
  }
  std::printf("}");
}

// --- section 1: exact branch-and-bound vs the ladder -----------------------

struct ExactVsLadder {
  int n = 0;
  int agents = 0;
  double exact_ms_per_agent = 0.0;
  double ladder_ms_per_agent = 0.0;
  std::uint64_t exact_evaluations = 0;  ///< strategy evaluations, summed
  std::uint64_t ladder_evaluations = 0;
  instrument::CounterArray exact_counters{};   ///< kernel work, exact phase
  instrument::CounterArray ladder_counters{};  ///< kernel work, ladder phase
};

ExactVsLadder bench_exact_vs_ladder(int n, int agents) {
  Rng rng(910u + static_cast<std::uint64_t>(n));
  const Game game(make_geo_game(n, rng));
  DeviationEngine engine(game, random_profile(game, rng));

  ExactVsLadder row;
  row.n = n;
  row.agents = agents;
  std::vector<double> exact_costs;
  {
    const instrument::MetricsSnapshot before = instrument::metrics_snapshot();
    const Stopwatch timer;
    for (int i = 0; i < agents; ++i) {
      const int u = static_cast<int>((static_cast<long long>(i) * n) / agents);
      BestResponseOptions options;
      options.incumbent = engine.agent_cost(u);
      const BestResponseResult br = exact_best_response(engine, u, options);
      exact_costs.push_back(std::min(br.cost, options.incumbent));
      row.exact_evaluations += br.evaluations;
    }
    row.exact_ms_per_agent = timer.millis() / agents;
    row.exact_counters = counters_since(before);
  }
  {
    const instrument::MetricsSnapshot before = instrument::metrics_snapshot();
    const Stopwatch timer;
    for (int i = 0; i < agents; ++i) {
      const int u = static_cast<int>((static_cast<long long>(i) * n) / agents);
      ApproxBrOptions options;
      options.budget = kBudget;
      options.incumbent = engine.agent_cost(u);
      const ApproxBrResult ladder = approx_best_response_ladder(engine, u,
                                                               options);
      row.ladder_evaluations += ladder.evaluations;
      // Soundness against the exact optimum: the ladder's achieved cost
      // can never beat it and the escape lower bound can never exceed it.
      const double exact = exact_costs[static_cast<std::size_t>(i)];
      const double tol = 1e-9 * std::max(1.0, std::abs(exact));
      if (ladder.cost < exact - tol || ladder.lower_bound > exact + tol) {
        std::fprintf(stderr,
                     "FAIL: ladder unsound at n=%d u=%d (exact %.17g, "
                     "ladder cost %.17g, lower bound %.17g)\n",
                     n, u, exact, ladder.cost, ladder.lower_bound);
        std::exit(3);
      }
    }
    row.ladder_ms_per_agent = timer.millis() / agents;
    row.ladder_counters = counters_since(before);
  }
  return row;
}

// --- section 2: the large-n tier -------------------------------------------

struct LargeTier {
  int n = 0;
  std::uint64_t moves = 0;
  double dynamics_ms = 0.0;
  double ms_per_move = 0.0;
  int certified_agents = 0;
  double certify_ms_per_agent = 0.0;
  double max_beta = 1.0;
  double mean_beta = 1.0;
  double max_eps = 0.0;
  int improving_agents = 0;
  int built_edges = 0;
  std::size_t arena_peak_bytes = 0;
  double arena_peak_bytes_per_node = 0.0;
  std::uint64_t arena_shrink_events = 0;
  instrument::CounterArray dynamics_counters{};  ///< kernel work, dynamics
  instrument::CounterArray certify_counters{};   ///< kernel work, certify
};

LargeTier bench_large_tier(int n, std::uint64_t max_moves, int certify) {
  Rng rng(2718u + static_cast<std::uint64_t>(n));
  const std::uint64_t dense_before = DistanceMatrix::allocated_cells_total();
  const Game game(make_geo_game(n, rng));

  RestartOptions options;
  options.restarts = 1;
  options.seed = rng();
  options.label = "bench_large_geo";
  // O(n) start profile: the spanning-random family draws Theta(n^2) extra
  // edges, which already dwarfs the game itself at n = 10^4.
  options.start = StartProfileKind::kRecursiveTree;
  options.dynamics.rule = MoveRule::kApproxLadder;
  options.dynamics.scheduler = SchedulerKind::kRoundRobin;
  options.dynamics.max_moves = max_moves;
  options.dynamics.approx_budget = kBudget;
  options.dynamics.approx_repair_cap = kRepairCap;
  options.dynamics.detect_cycles = false;
  options.dynamics.record_steps = false;

  LargeTier row;
  row.n = n;
  const instrument::MetricsSnapshot dynamics_before =
      instrument::metrics_snapshot();
  const Stopwatch dynamics_timer;
  const RestartReport report = run_restarts(game, options);
  row.dynamics_ms = dynamics_timer.millis();
  row.dynamics_counters = counters_since(dynamics_before);
  const RestartRun* run = nullptr;
  for (const RestartRun& candidate : report.runs)
    if (!candidate.skipped) {
      run = &candidate;
      break;
    }
  if (run == nullptr) {
    std::fprintf(stderr, "FAIL: large tier ran no restart at n=%d\n", n);
    std::exit(3);
  }
  row.moves = run->result.moves;
  row.ms_per_move = row.dynamics_ms / std::max<std::uint64_t>(1, row.moves);
  row.built_edges = run->result.final_profile.built_edge_count();

  DeviationEngine engine(game, run->result.final_profile);
  row.certified_agents = std::min(certify, n);
  std::vector<int> agent_ids;
  for (int i = 0; i < row.certified_agents; ++i)
    agent_ids.push_back(static_cast<int>((static_cast<long long>(i) * n) /
                                         row.certified_agents));
  double beta_sum = 0.0;
  const instrument::MetricsSnapshot certify_before =
      instrument::metrics_snapshot();
  const Stopwatch certify_timer;
  ApproxBrOptions ladder_options;
  ladder_options.budget = kBudget;
  ladder_options.repair_cap = kRepairCap;
  const std::vector<CertifiedAgent> certified =
      certify_agents(engine, agent_ids, ladder_options);
  for (const CertifiedAgent& ca : certified) {
    const ApproxBrResult& ladder = ca.result;
    const double beta_u = ladder.lower_bound > 0.0
                              ? ca.current_cost / ladder.lower_bound
                              : 1.0;
    row.max_beta = std::max(row.max_beta, beta_u);
    beta_sum += beta_u;
    row.max_eps = std::max(
        row.max_eps, std::max(0.0, ca.current_cost - ladder.lower_bound));
    if (ladder.improved) ++row.improving_agents;
  }
  row.certify_ms_per_agent = certify_timer.millis() / row.certified_agents;
  row.certify_counters = counters_since(certify_before);
  row.mean_beta = beta_sum / row.certified_agents;

  const std::uint64_t dense_after = DistanceMatrix::allocated_cells_total();
  if (dense_after != dense_before) {
    std::fprintf(stderr,
                 "FAIL: euclidean path materialized a dense matrix at n=%d "
                 "(%llu cells)\n",
                 n, static_cast<unsigned long long>(dense_after -
                                                    dense_before));
    std::exit(3);
  }
  const ArenaStats arenas = arena_stats();
  row.arena_peak_bytes = arenas.peak_footprint_bytes;
  row.arena_peak_bytes_per_node =
      static_cast<double>(arenas.peak_footprint_bytes) / n;
  row.arena_shrink_events = arenas.shrink_events;
  return row;
}

}  // namespace
}  // namespace gncg

int main(int argc, char** argv) {
  bool smoke = false;
  bool allow_debug = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--allow-debug") == 0) allow_debug = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_large_geo [--smoke] [--allow-debug]\n");
      return 1;
    }
  }

  if (!gncg::bench::require_release(allow_debug, "bench_large_geo")) return 2;

  // --- exact vs ladder ---
  const std::vector<int> contrast_sizes =
      smoke ? std::vector<int>{32} : std::vector<int>{32, 64, 128};
  std::vector<gncg::ExactVsLadder> contrast;
  for (int n : contrast_sizes) {
    contrast.push_back(gncg::bench_exact_vs_ladder(n, smoke ? 4 : 8));
    const auto& c = contrast.back();
    std::fprintf(stderr,
                 "exact_vs_ladder n=%-4d exact %.2f ms/agent (%llu evals), "
                 "ladder %.2f ms/agent (%llu evals)\n",
                 c.n, c.exact_ms_per_agent,
                 static_cast<unsigned long long>(c.exact_evaluations),
                 c.ladder_ms_per_agent,
                 static_cast<unsigned long long>(c.ladder_evaluations));
  }

  // --- large tier ---
  struct Point {
    int n;
    std::uint64_t max_moves;
    int certify;
  };
  const std::vector<Point> points =
      smoke ? std::vector<Point>{{2000, 12, 4}}
            : std::vector<Point>{
                  {10000, 300, 8}, {100000, 30, 4}, {1000000, 6, 2}};
  std::vector<gncg::LargeTier> tiers;
  for (const Point& point : points) {
    tiers.push_back(
        gncg::bench_large_tier(point.n, point.max_moves, point.certify));
    const auto& t = tiers.back();
    std::fprintf(stderr,
                 "large_tier n=%-6d moves=%llu (%.1f ms/move), certify "
                 "%.1f ms/agent, max_beta %.3f, peak arena %.1f B/node\n",
                 t.n, static_cast<unsigned long long>(t.moves), t.ms_per_move,
                 t.certify_ms_per_agent, t.max_beta,
                 t.arena_peak_bytes_per_node);
  }

  std::printf("{\n");
  std::printf(
      "  \"description\": \"Large-n geometric tier: exact branch-and-bound "
      "best response vs the approximate-BR ladder on euclidean games "
      "(per-agent cost and evaluation counts; ladder soundness against the "
      "exact optimum asserted inline), then bounded-frontier approx-ladder "
      "dynamics (repair_cap truncates the ladder's facility rows; only "
      "adopted strategies pay full repairs) plus a batched certify_agents "
      "per-agent "
      "(beta, eps) sample at n = 10^4, 10^5 and 10^6 with the "
      "dense-matrix-free contract enforced "
      "(DistanceMatrix::allocated_cells_total() unchanged) and the worker-"
      "arena peak footprint reported per node.  Every phase carries its "
      "kernel-counter delta (nonzero entries only; empty under "
      "GNCG_INSTRUMENT=OFF), so the ladder cost split -- base Dijkstra "
      "relaxations vs row builds and exact repairs vs restricted-search "
      "merges -- is recorded, not guessed.\",\n");
  {
    char alpha_json[32], budget_json[32], cap_json[32];
    std::snprintf(alpha_json, sizeof alpha_json, "%.1f", gncg::kAlpha);
    std::snprintf(budget_json, sizeof budget_json, "%d", gncg::kBudget);
    std::snprintf(cap_json, sizeof cap_json, "%zu", gncg::kRepairCap);
    gncg::bench::print_context(
        std::string("./build/bench_large_geo") + (smoke ? " --smoke" : ""),
        gncg::default_thread_count(),
        {{"alpha", alpha_json},
         {"budget", budget_json},
         {"repair_cap", cap_json}});
  }
  std::printf("  \"exact_vs_ladder\": [\n");
  for (std::size_t i = 0; i < contrast.size(); ++i) {
    const auto& c = contrast[i];
    std::printf(
        "    {\"n\": %d, \"agents\": %d, \"exact_ms_per_agent\": %.3f, "
        "\"ladder_ms_per_agent\": %.3f, \"exact_evaluations\": %llu, "
        "\"ladder_evaluations\": %llu, \"ladder_speedup\": %.2f,\n",
        c.n, c.agents, c.exact_ms_per_agent, c.ladder_ms_per_agent,
        static_cast<unsigned long long>(c.exact_evaluations),
        static_cast<unsigned long long>(c.ladder_evaluations),
        c.ladder_ms_per_agent > 0.0
            ? c.exact_ms_per_agent / c.ladder_ms_per_agent
            : 0.0);
    std::printf("     \"exact_counters\": ");
    gncg::print_counter_object(c.exact_counters);
    std::printf(",\n     \"ladder_counters\": ");
    gncg::print_counter_object(c.ladder_counters);
    std::printf("}%s\n", i + 1 < contrast.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"large_tier\": [\n");
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto& t = tiers[i];
    std::printf(
        "    {\"n\": %d, \"moves\": %llu, \"ms_per_move\": %.1f, "
        "\"certified_agents\": %d, \"certify_ms_per_agent\": %.1f, "
        "\"max_beta\": %.4f, \"mean_beta\": %.4f, \"max_eps\": %.4f, "
        "\"improving_agents\": %d, \"built_edges\": %d, "
        "\"arena_peak_bytes\": %zu, \"arena_peak_bytes_per_node\": %.1f, "
        "\"arena_shrink_events\": %llu,\n",
        t.n, static_cast<unsigned long long>(t.moves), t.ms_per_move,
        t.certified_agents, t.certify_ms_per_agent, t.max_beta, t.mean_beta,
        t.max_eps, t.improving_agents, t.built_edges, t.arena_peak_bytes,
        t.arena_peak_bytes_per_node,
        static_cast<unsigned long long>(t.arena_shrink_events));
    std::printf("     \"dynamics_counters\": ");
    gncg::print_counter_object(t.dynamics_counters);
    std::printf(",\n     \"certify_counters\": ");
    gncg::print_counter_object(t.certify_counters);
    std::printf("}%s\n", i + 1 < tiers.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
