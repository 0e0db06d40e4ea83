// Dynamics-kernel scaling bench: restart throughput and cycle detection.
//
// Two workload families, at n in {64, 128, 256} on random 1-2 hosts:
//
//  * restart throughput: run_restarts with the best-single-move rule,
//    serial (1 thread) vs the full worker pool.  Restart streams are
//    derived per restart (PR 3 contract), so both configurations compute
//    the identical result set -- the ratio is pure orchestration speedup
//    (per-worker engine reuse + pool fan-out).
//  * cycle detection: on a recorded cycle-hunting trajectory (many bounded
//    round-robin runs concatenated into a mostly-distinct history, plus
//    revisit laps at the end), time three revisit detectors doing
//    identical work per step:
//      - full_compare: exact comparison against every stored profile,
//      - rehash: recompute the profile hash from scratch each step, map
//        lookup, exact confirmation (the pre-kernel ProfileHistory),
//      - zobrist: incrementally maintained hash + transposition table,
//        exact confirmation (the kernel's detector).
//
// Output is one JSON document on stdout (recorded as BENCH_dynamics.json).
// The process refuses to run from a non-optimized build (--allow-debug
// overrides, never for recorded numbers).
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/dynamics.hpp"
#include "core/restarts.hpp"
#include "core/transposition.hpp"
#include "metric/host_graph.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace gncg {
namespace {

struct ThroughputResult {
  int n = 0;
  int restarts = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  std::size_t converged = 0;
  std::uint64_t total_moves = 0;
};

ThroughputResult bench_throughput(int n, int restarts) {
  Rng rng(20260730u + static_cast<std::uint64_t>(n));
  const Game game(random_one_two_host(n, 0.5, rng), 1.5);

  RestartOptions options;
  options.restarts = restarts;
  options.seed = 7;
  options.label = "bench_dynamics";
  options.start = StartProfileKind::kRecursiveTree;
  options.dynamics.rule = MoveRule::kBestSingleMove;
  options.dynamics.scheduler = SchedulerKind::kRoundRobin;
  // Bounded runs: every applied move invalidates the caches, so a move
  // costs ~n SSSP; a fixed slice keeps the large-n points affordable while
  // still measuring pure orchestration overhead per restart.
  options.dynamics.max_moves = 64;
  options.dynamics.record_steps = false;

  ThroughputResult result;
  result.n = n;
  result.restarts = restarts;

  set_default_thread_count(1);
  {
    const Stopwatch timer;
    const RestartReport report = run_restarts(game, options);
    result.serial_ms = timer.millis();
    result.converged = report.converged;
    for (const auto& run : report.runs) result.total_moves += run.result.moves;
  }
  set_default_thread_count(0);  // restore the pool
  {
    const Stopwatch timer;
    const RestartReport report = run_restarts(game, options);
    result.parallel_ms = timer.millis();
    // Identical results regardless of thread count (the determinism
    // contract); a mismatch is a bench failure.
    std::uint64_t moves = 0;
    for (const auto& run : report.runs) moves += run.result.moves;
    if (report.converged != result.converged || moves != result.total_moves) {
      std::fprintf(stderr,
                   "FAIL: serial/parallel restart results diverge at n=%d\n",
                   n);
      std::exit(3);
    }
  }
  return result;
}

struct DetectionResult {
  int n = 0;
  std::size_t trajectory = 0;  ///< profiles walked (revisit-heavy)
  double full_compare_ms = 0.0;
  double rehash_ms = 0.0;
  double zobrist_ms = 0.0;
  std::size_t revisits = 0;
};

/// Records a cycle-hunting profile sequence: `runs` bounded dynamics runs
/// from distinct random starts concatenated (a mostly-distinct history --
/// the regime where every new state must be checked against thousands of
/// stored ones), with the first run's trajectory re-walked twice more at
/// the end (guaranteed revisits, so detector agreement is exercised on
/// hits too).  Consecutive profiles differ in one agent except at run
/// boundaries, matching what kernel steps look like.
std::vector<StrategyProfile> hunt_trajectory(const Game& game, int runs) {
  Rng rng(99);
  std::vector<StrategyProfile> trajectory;
  std::size_t first_run_end = 0;
  for (int r = 0; r < runs; ++r) {
    DynamicsOptions options;
    options.rule = MoveRule::kBestSingleMove;
    options.scheduler = SchedulerKind::kRoundRobin;
    options.max_moves = 256;
    options.detect_cycles = false;
    options.record_steps = true;
    options.seed = rng();
    const StrategyProfile start = random_profile(game, rng);
    const auto run = run_dynamics(game, start, options);
    trajectory.push_back(start);
    for (const auto& step : run.steps) {
      StrategyProfile next = trajectory.back();
      next.set_strategy(step.agent, step.new_strategy);
      trajectory.push_back(std::move(next));
    }
    if (r == 0) first_run_end = trajectory.size();
  }
  for (int lap = 0; lap < 2; ++lap)
    for (std::size_t i = 0; i < first_run_end; ++i)
      trajectory.push_back(trajectory[i]);
  return trajectory;
}

DetectionResult bench_detection(int n, int runs) {
  Rng rng(31u + static_cast<std::uint64_t>(n));
  const Game game(random_one_two_host(n, 0.5, rng), 1.5);
  const auto trajectory = hunt_trajectory(game, runs);

  DetectionResult result;
  result.n = n;
  result.trajectory = trajectory.size();

  // (a) full comparison against every stored profile.
  std::size_t full_hits = 0;
  {
    const Stopwatch timer;
    std::vector<StrategyProfile> seen;
    for (const auto& profile : trajectory) {
      bool revisit = false;
      for (const auto& other : seen)
        if (other == profile) {
          revisit = true;
          break;
        }
      if (revisit) ++full_hits;
      else seen.push_back(profile);
    }
    result.full_compare_ms = timer.millis();
  }

  // Both hashed detectors log every changed agent's pre-move strategy into
  // the table's change log (what run_dynamics does per committed move);
  // `on_change` sees each change too.  The trajectory carries no move
  // list, so the changed agents are found by diffing consecutive profiles.
  const auto log_changes = [&](TranspositionTable& table, std::size_t i,
                               auto&& on_change) {
    const StrategyProfile& prev = trajectory[i - 1];
    const StrategyProfile& cur = trajectory[i];
    for (int u = 0; u < cur.node_count(); ++u)
      if (!(prev.strategy(u) == cur.strategy(u))) {
        table.log_move(u, prev.strategy(u));
        on_change(u);
      }
  };

  // (b) per-step from-scratch rehash + confirmed lookup (the old
  // ProfileHistory): the hash costs O(n^2/64) words every step.
  std::size_t rehash_hits = 0;
  {
    const Stopwatch timer;
    TranspositionTable table;
    for (std::size_t i = 0; i < trajectory.size(); ++i) {
      if (i > 0) log_changes(table, i, [](int) {});
      const std::uint64_t hash = zobrist_profile_hash(trajectory[i]);
      if (table.find(hash, trajectory[i]) != TranspositionTable::npos)
        ++rehash_hits;
      else table.insert(hash, 0);
    }
    result.rehash_ms = timer.millis();
  }

  // (c) incrementally maintained hash + confirmed lookup (the kernel's
  // detector): the per-step hash is one XOR delta.
  std::size_t zobrist_hits = 0;
  {
    const Stopwatch timer;
    TranspositionTable table;
    std::uint64_t hash = zobrist_profile_hash(trajectory.front());
    for (std::size_t i = 0; i < trajectory.size(); ++i) {
      if (i > 0) {
        // Incremental delta over the agents whose strategy changed (what
        // DeviationEngine::profile_hash maintains under mutations).
        log_changes(table, i, [&](int u) {
          hash ^= zobrist_strategy_hash(u, trajectory[i - 1].strategy(u)) ^
                  zobrist_strategy_hash(u, trajectory[i].strategy(u));
        });
      }
      if (table.find(hash, trajectory[i]) != TranspositionTable::npos)
        ++zobrist_hits;
      else table.insert(hash, 0);
    }
    result.zobrist_ms = timer.millis();
  }

  if (full_hits != rehash_hits || full_hits != zobrist_hits) {
    std::fprintf(stderr,
                 "FAIL: detectors disagree at n=%d (full=%zu rehash=%zu "
                 "zobrist=%zu)\n",
                 n, full_hits, rehash_hits, zobrist_hits);
    std::exit(3);
  }
  result.revisits = full_hits;
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
      std::fprintf(stderr, "usage: bench_dynamics [--smoke] [--allow-debug]\n");
      return 1;
    }
  }

  if (!gncg::bench::require_release(allow_debug, "bench_dynamics")) return 2;

  const unsigned num_cpus = std::thread::hardware_concurrency();
  const bool parallelism_limited = num_cpus <= 1;
  if (parallelism_limited)
    std::fprintf(stderr,
                 "bench_dynamics: only %u CPU(s) visible; the serial-vs-pool "
                 "ratio measures orchestration overhead, not parallel "
                 "speedup (parallelism_limited).\n",
                 num_cpus);

  const std::vector<int> sizes =
      smoke ? std::vector<int>{64} : std::vector<int>{64, 128, 256};
  const int restarts = smoke ? 8 : 16;
  const int hunt_runs = smoke ? 4 : 20;

  std::vector<gncg::ThroughputResult> throughput;
  std::vector<gncg::DetectionResult> detection;
  for (int n : sizes) {
    throughput.push_back(gncg::bench_throughput(n, restarts));
    std::fprintf(stderr, "throughput n=%-4d serial %.1f ms, pool %.1f ms\n", n,
                 throughput.back().serial_ms, throughput.back().parallel_ms);
    detection.push_back(gncg::bench_detection(n, hunt_runs));
    std::fprintf(stderr,
                 "detection  n=%-4d full %.1f ms, rehash %.2f ms, zobrist "
                 "%.2f ms (%zu revisits)\n",
                 n, detection.back().full_compare_ms,
                 detection.back().rehash_ms, detection.back().zobrist_ms,
                 detection.back().revisits);
  }

  std::printf("{\n");
  std::printf(
      "  \"description\": \"Dynamics kernel: run_restarts throughput (serial "
      "1-thread vs worker pool; identical results by the determinism "
      "contract, so the ratio is pure orchestration speedup) and revisit "
      "detection on a revisit-heavy trajectory (full_compare = exact scan "
      "over all stored profiles, rehash = from-scratch profile hash per "
      "step + confirmed lookup (the pre-kernel ProfileHistory), zobrist = "
      "incrementally maintained hash + confirmed lookup (the kernel's "
      "transposition detector)). All three detectors confirm hits by exact "
      "comparison, so none can report a false cycle.\",\n");
  gncg::bench::print_context(
      std::string("./build/bench_dynamics") + (smoke ? " --smoke" : ""),
      gncg::default_thread_count());
  std::printf("  \"restart_throughput\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const auto& r = throughput[i];
    std::printf(
        "    {\"n\": %d, \"restarts\": %d, \"serial_ms\": %.1f, "
        "\"parallel_ms\": %.1f, \"speedup\": %.2f, \"converged\": %zu, "
        "\"total_moves\": %llu}%s\n",
        r.n, r.restarts, r.serial_ms, r.parallel_ms,
        r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 0.0, r.converged,
        static_cast<unsigned long long>(r.total_moves),
        i + 1 < throughput.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"cycle_detection\": [\n");
  for (std::size_t i = 0; i < detection.size(); ++i) {
    const auto& r = detection[i];
    std::printf(
        "    {\"n\": %d, \"trajectory\": %zu, \"revisits\": %zu, "
        "\"full_compare_ms\": %.2f, \"rehash_ms\": %.3f, \"zobrist_ms\": "
        "%.3f, \"speedup_vs_full\": %.1f, \"speedup_vs_rehash\": %.2f}%s\n",
        r.n, r.trajectory, r.revisits, r.full_compare_ms, r.rehash_ms,
        r.zobrist_ms,
        r.zobrist_ms > 0.0 ? r.full_compare_ms / r.zobrist_ms : 0.0,
        r.zobrist_ms > 0.0 ? r.rehash_ms / r.zobrist_ms : 0.0,
        i + 1 < detection.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
