// Best-response search bench: incremental br_search engine vs the naive
// per-subset-Dijkstra baseline.
//
// For each backend (dense 1-2, euclidean, tree) and each n in {64,128,256}
// this driver settles a recursive-tree start profile with best-single-move
// dynamics (bounded move budget, so certification runs against a
// near-equilibrium profile, the paper's workload shape; alpha is scaled
// with n per backend to keep the NP-hard search in its tractable regime,
// see make_game), then measures:
//   * NE certification: per-agent first-improvement exact BR with the
//     current cost as incumbent -- old (naive_exact_best_response over a
//     fresh environment per agent) vs new (engine-borrowing incremental
//     search with parallel first-level fan-out);
//   * full BR: incumbent-bounded full-argmin searches for a sample of
//     agents, old vs new, with evaluation counts for both.
// The improving-agent count and the full-BR strategies must agree between
// the paths (differential check; MISMATCH fails the bench).
//
// Output is one JSON document on stdout (recorded as BENCH_br.json).  The
// process refuses to run from a non-optimized build (see --allow-debug).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/best_response.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/profile_gen.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "reference/naive_search.hpp"
#include "support/arena.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace gncg {
namespace {

/// Per-backend game in the tractable certification regime.  Exact best
/// response is NP-hard: at fixed alpha the admissible edge budget
/// (incumbent - host floor) / alpha grows with n and the subset tree
/// explodes for *both* searches, so alpha is scaled with n (dense: alpha=n
/// over 1-2 weights; euclidean: alpha=n/4 over ~1e3-scale distances) to
/// keep the per-agent search depth bounded across sizes.  Tree hosts
/// certify in near-constant work at any alpha (the host floor is exact).
Game make_game(const std::string& backend, int n, Rng& rng) {
  if (backend == "euclidean")
    return Game(HostGraph::from_points(uniform_points(n, 2, 1000.0, rng), 2.0),
                static_cast<double>(n) / 4.0);
  if (backend == "tree")
    return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)), 2.0);
  return Game(random_one_two_host(n, 0.5, rng), static_cast<double>(n));
}

struct RunResult {
  std::string backend;
  int n = 0;
  int settle_moves = 0;
  int certify_agents = 0;
  int improving_agents = 0;
  double old_certify_ms = 0.0;
  double new_certify_ms = 0.0;
  double new_certify_all_ms = 0.0;  ///< new engine over ALL n agents
  int full_agents = 0;
  double old_full_ms = 0.0;
  double new_full_ms = 0.0;
  double old_full_evals = 0.0;
  double new_full_evals = 0.0;
  bool mismatch = false;
};

RunResult run_backend(const std::string& backend, int n, std::uint64_t stream,
                      int certify_agents, int full_agents) {
  RunResult result;
  result.backend = backend;
  result.n = n;
  Rng rng(stream);

  const Game game = make_game(backend, n, rng);
  // Settle towards a greedy equilibrium (bounded move budget: euclidean
  // hosts have a long tail of tiny real-valued improvements).
  DynamicsOptions settle;
  settle.rule = MoveRule::kBestSingleMove;
  settle.scheduler = SchedulerKind::kRoundRobin;
  settle.max_moves = static_cast<std::uint64_t>(8) * n;
  settle.detect_cycles = false;
  const auto settled =
      run_dynamics(game, recursive_tree_profile(game, rng), settle);
  result.settle_moves = static_cast<int>(settled.moves);
  DeviationEngine engine(game, settled.final_profile);
  const StrategyProfile& profile = engine.profile();

  // Exactly certify_agents distinct agents, evenly spaced over the id range.
  std::vector<int> agents;
  const int per = std::min(certify_agents, n);
  for (int i = 0; i < per; ++i)
    agents.push_back(static_cast<int>((static_cast<long long>(i) * n) / per));
  result.certify_agents = per;

  std::vector<double> incumbents;
  for (int u : agents) incumbents.push_back(engine.agent_cost(u));

  // --- NE certification: first-improvement searches ---
  int old_improving = 0;
  {
    const Stopwatch timer;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      NaiveBrOptions options;
      options.incumbent = incumbents[i];
      options.first_improvement = true;
      if (naive_exact_best_response(game, profile, agents[i], options)
              .improved)
        ++old_improving;
    }
    result.old_certify_ms = timer.millis();
  }
  int new_improving = 0;
  {
    const Stopwatch timer;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      BestResponseOptions options;
      options.incumbent = incumbents[i];
      options.first_improvement = true;
      if (exact_best_response(engine, agents[i], options).improved)
        ++new_improving;
    }
    result.new_certify_ms = timer.millis();
  }
  result.improving_agents = new_improving;
  if (old_improving != new_improving) result.mismatch = true;

  // New-engine-only absolute throughput: certify every agent (the naive
  // baseline is sampled above because its weak global floor makes full
  // certification infeasible at the larger sizes).
  {
    const Stopwatch timer;
    for (int u = 0; u < n; ++u) {
      BestResponseOptions options;
      options.incumbent = engine.agent_cost(u);
      options.first_improvement = true;
      volatile bool sink = exact_best_response(engine, u, options).improved;
      (void)sink;
    }
    result.new_certify_all_ms = timer.millis();
  }

  // --- full BR: incumbent-bounded argmin for a sample of agents ---
  std::vector<int> full;
  const int per_full = std::min(full_agents, n);
  for (int i = 0; i < per_full; ++i)
    full.push_back(static_cast<int>((static_cast<long long>(i) * n) / per_full));
  result.full_agents = per_full;

  std::vector<BestResponseResult> old_results;
  {
    const Stopwatch timer;
    for (int u : full) {
      NaiveBrOptions options;
      options.incumbent = engine.agent_cost(u);
      old_results.push_back(
          naive_exact_best_response(game, profile, u, options));
      result.old_full_evals +=
          static_cast<double>(old_results.back().evaluations);
    }
    result.old_full_ms = timer.millis();
  }
  {
    const Stopwatch timer;
    for (std::size_t i = 0; i < full.size(); ++i) {
      BestResponseOptions options;
      options.incumbent = engine.agent_cost(full[i]);
      const auto br = exact_best_response(engine, full[i], options);
      result.new_full_evals += static_cast<double>(br.evaluations);
      if (br.improved != old_results[i].improved ||
          (br.improved && !(br.strategy == old_results[i].strategy)))
        result.mismatch = true;
    }
    result.new_full_ms = timer.millis();
  }
  return result;
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
                   "usage: bench_br_search [--smoke] [--allow-debug]\n");
      return 1;
    }
  }

  if (!gncg::bench::require_release(allow_debug, "bench_br_search")) return 2;

  using gncg::RunResult;
  const std::vector<int> sizes =
      smoke ? std::vector<int>{24} : std::vector<int>{64, 128, 256};
  std::vector<RunResult> results;
  bool failed = false;
  std::uint64_t point = 0;
  for (const char* backend : {"dense", "euclidean", "tree"}) {
    for (int n : sizes) {
      // The old-vs-new comparison certifies every agent at n=64 and a
      // sampled set beyond (the naive baseline's weak global floor makes
      // its full certification sweep infeasible at the larger sizes; the
      // new engine always certifies all n agents, see new_certify_all_ms).
      // The full-argmin sample stays small for the same reason.
      int certify_agents = n;
      if (!smoke && n >= 128) certify_agents = n >= 256 ? 8 : 16;
      const int full_agents = smoke ? 4 : 8;
      const RunResult r = gncg::run_backend(
          backend, n, gncg::stream_seed("bench_br", point++, 20190416u),
          certify_agents, full_agents);
      results.push_back(r);
      if (r.mismatch) {
        std::fprintf(stderr, "FAIL: %s n=%d old/new disagreement\n", backend,
                     n);
        failed = true;
      }
      std::fprintf(stderr,
                   "done %-9s n=%-4d certify %.1f -> %.1f ms (%.1fx), "
                   "full %.1f -> %.1f ms (%.1fx)\n",
                   backend, n, r.old_certify_ms, r.new_certify_ms,
                   r.new_certify_ms > 0 ? r.old_certify_ms / r.new_certify_ms
                                        : 0.0,
                   r.old_full_ms, r.new_full_ms,
                   r.new_full_ms > 0 ? r.old_full_ms / r.new_full_ms : 0.0);
    }
  }

  std::printf("{\n");
  std::printf(
      "  \"description\": \"Best-response search: incremental br_search "
      "engine (one Dijkstra per search + in-DFS distance maintenance + "
      "parallel first-level fan-out) vs the naive per-subset-Dijkstra "
      "baseline.  Per backend/n: a recursive-tree profile settled by "
      "best-single-move dynamics (move budget 8n; alpha scaled with n per "
      "backend -- dense alpha=n, euclidean alpha=n/4, tree alpha=2 -- to "
      "keep the NP-hard search tractable), then (a) NE certification -- "
      "per-agent "
      "first-improvement exact BR over certify_agents evenly spaced agents "
      "(all agents at n=64; sampled beyond, where the naive baseline's "
      "weak global floor is infeasible -- new_certify_all_ms is the new "
      "engine certifying all n agents) -- and (b) incumbent-bounded full "
      "BR for full_agents sampled agents.  improving_agents and full-BR "
      "strategies are differentially checked between the paths.\",\n");
  gncg::bench::print_context(
      std::string("./build/bench_br_search") + (smoke ? " --smoke" : ""),
      gncg::default_thread_count());
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::printf(
        "    {\"backend\": \"%s\", \"n\": %d, \"settle_moves\": %d, "
        "\"certify_agents\": %d, \"improving_agents\": %d, "
        "\"old_certify_ms\": %.2f, \"new_certify_ms\": %.2f, "
        "\"certify_speedup\": %.2f, \"new_certify_all_ms\": %.2f, "
        "\"full_agents\": %d, "
        "\"old_full_ms\": %.2f, \"new_full_ms\": %.2f, "
        "\"full_speedup\": %.2f, \"old_full_evals\": %.0f, "
        "\"new_full_evals\": %.0f}%s\n",
        r.backend.c_str(), r.n, r.settle_moves, r.certify_agents,
        r.improving_agents, r.old_certify_ms, r.new_certify_ms,
        r.new_certify_ms > 0.0 ? r.old_certify_ms / r.new_certify_ms : 0.0,
        r.new_certify_all_ms, r.full_agents, r.old_full_ms, r.new_full_ms,
        r.new_full_ms > 0.0 ? r.old_full_ms / r.new_full_ms : 0.0,
        r.old_full_evals, r.new_full_evals,
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return failed ? 3 : 0;
}
