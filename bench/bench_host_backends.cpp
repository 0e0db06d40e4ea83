// Host-backend scaling bench: dense vs implicit host metrics at large n.
//
// For each backend (dense, lazy closure, euclidean, tree) and each n in
// {128, 1024, 4096} this driver measures, on a path-profile start:
//   * host + game construction time,
//   * DeviationEngine construction + full distance-cache warm-up,
//   * an all-agents best-single-move sweep (sampled at the largest sizes
//     where a full sweep would dominate the runtime; the euclidean 4096
//     sweep is always full -- it is the acceptance workload),
//   * the first host_distance_sum query (eager Floyd-Warshall vs lazy
//     closure row vs one O(n) geometric row sum per call),
//   * DistanceMatrix cells allocated during the run (must be 0 for the
//     geometric backends: they never materialize an O(n^2) matrix), and
//   * peak RSS after the run (rusage, monotone across runs -- implicit
//     backends run first so their peaks are attributable).
//
// Output is one JSON document on stdout (recorded as BENCH_host.json).
// The process refuses to run from a non-optimized build (see --allow-debug):
// numbers recorded from a debug build mislead.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/deviation_engine.hpp"
#include "core/game.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace gncg {
namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

Game make_game(const std::string& backend, int n, Rng& rng) {
  if (backend == "euclidean")
    return Game(HostGraph::from_points(uniform_points(n, 2, 1000.0, rng), 2.0),
                2.0);
  if (backend == "tree")
    return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 10.0)), 2.0);
  // dense / lazy: the canonical random 1-2 host (metric by construction, so
  // building it costs O(n^2), not an O(n^3) repair pass).
  auto host = random_one_two_host(n, 0.5, rng);
  if (backend == "lazy")
    host = HostGraph::from_weights_lazy(host.weights(), ModelClass::kOneTwo);
  return Game(std::move(host), 2.0);
}

struct RunResult {
  std::string backend;
  int n = 0;
  double construct_ms = 0.0;
  double warm_ms = 0.0;
  double sweep_ms = 0.0;
  int sweep_agents = 0;
  int improving_agents = 0;
  double closure_probe_ms = -1.0;  ///< -1: skipped (dense 4096 would be O(n^3))
  std::uint64_t matrix_cells = 0;
  double rss_mb = 0.0;
};

RunResult run_backend(const std::string& backend, int n, int sweep_agents,
                      bool probe_closure) {
  RunResult result;
  result.backend = backend;
  result.n = n;
  const std::uint64_t cells_before = DistanceMatrix::allocated_cells_total();
  Rng rng(20190416u + static_cast<std::uint64_t>(n));

  Stopwatch construct;
  const Game game = make_game(backend, n, rng);
  result.construct_ms = construct.millis();

  StrategyProfile profile(n);
  for (int i = 0; i + 1 < n; ++i) profile.add_buy(i, i + 1);

  Stopwatch warm;
  DeviationEngine engine(game, std::move(profile));
  engine.warm_distances();
  result.warm_ms = warm.millis();

  // Exactly sweep_agents distinct agents, evenly spaced over the id range
  // (identical to a fixed stride for the power-of-two sizes used here).
  const int per_sweep = std::min(sweep_agents, n);
  Stopwatch sweep;
  for (int i = 0; i < per_sweep; ++i) {
    const int u =
        static_cast<int>((static_cast<long long>(i) * n) / per_sweep);
    ++result.sweep_agents;
    if (engine.best_single_move_warm(u).improved) ++result.improving_agents;
  }
  result.sweep_ms = sweep.millis();

  if (probe_closure) {
    Stopwatch probe;
    volatile double sink = game.host_distance_sum(0);
    (void)sink;
    result.closure_probe_ms = probe.millis();
  }

  result.matrix_cells =
      DistanceMatrix::allocated_cells_total() - cells_before;
  result.rss_mb = peak_rss_mb();
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
      std::fprintf(stderr, "usage: bench_host_backends [--smoke] [--allow-debug]\n");
      return 1;
    }
  }

  if (!gncg::bench::require_release(allow_debug, "bench_host_backends"))
    return 2;

  using gncg::RunResult;
  const std::vector<int> sizes = smoke ? std::vector<int>{64, 128}
                                       : std::vector<int>{128, 1024, 4096};
  std::vector<RunResult> results;
  bool failed = false;

  // Implicit backends first so their peak-RSS numbers are not polluted by
  // the dense matrices allocated later in the same process.
  for (const char* backend : {"euclidean", "tree", "lazy", "dense"}) {
    for (int n : sizes) {
      // Full sweep everywhere it is affordable; at n = 4096 the euclidean
      // sweep stays full (the acceptance workload) and the others sample.
      int sweep_agents = n;
      if (!smoke && n > 1024 && std::string(backend) != "euclidean")
        sweep_agents = 512;
      if (smoke) sweep_agents = std::min(n, 32);
      // Probing host_distance_sum on an un-closured dense host runs the full
      // O(n^3) Floyd-Warshall; skip it where that dwarfs the bench itself.
      const bool probe_closure =
          std::string(backend) != "dense" || n <= (smoke ? 128 : 1024);
      const RunResult r =
          gncg::run_backend(backend, n, sweep_agents, probe_closure);
      results.push_back(r);
      const bool implicit_backend =
          std::string(backend) == "euclidean" || std::string(backend) == "tree";
      if (implicit_backend && r.matrix_cells != 0) {
        std::fprintf(stderr,
                     "FAIL: %s backend at n=%d allocated %llu DistanceMatrix "
                     "cells (expected 0)\n",
                     backend, n,
                     static_cast<unsigned long long>(r.matrix_cells));
        failed = true;
      }
      std::fprintf(stderr, "done %-9s n=%-5d sweep=%d agents in %.1f ms\n",
                   backend, n, r.sweep_agents, r.sweep_ms);
    }
  }

  std::printf("{\n");
  std::printf(
      "  \"description\": \"Host-backend scaling: dense vs implicit host "
      "metrics. Workload per run: host+game construction, engine warm-up "
      "(n SSSP), best-single-move sweep over sweep_agents agents on a path "
      "profile, and a first host_distance_sum probe. matrix_cells counts "
      "DistanceMatrix cells allocated during the run (0 proves no O(n^2) "
      "host matrix was materialized); rss_mb is the process peak RSS after "
      "the run (implicit backends run first). closure_probe_ms -1 means "
      "skipped (eager O(n^3) closure at n=4096).\",\n");
  gncg::bench::print_context(
      std::string("./build/bench_host_backends") + (smoke ? " --smoke" : ""),
      gncg::default_thread_count());
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::printf(
        "    {\"backend\": \"%s\", \"n\": %d, \"construct_ms\": %.3f, "
        "\"warm_ms\": %.1f, \"sweep_ms\": %.1f, \"sweep_agents\": %d, "
        "\"improving_agents\": %d, \"closure_probe_ms\": %.3f, "
        "\"matrix_cells\": %llu, \"rss_mb\": %.1f}%s\n",
        r.backend.c_str(), r.n, r.construct_ms, r.warm_ms, r.sweep_ms,
        r.sweep_agents, r.improving_agents, r.closure_probe_ms,
        static_cast<unsigned long long>(r.matrix_cells), r.rss_mb,
        i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return failed ? 3 : 0;
}
