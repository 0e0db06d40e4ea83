// Parallel-MGM round kernel bench: rounds-to-convergence and move
// throughput of the sharded round scheduler vs the sequential schedulers.
//
// For each host family (dense 1-2, euclidean) and size the bench runs the
// same start profile under three schedulers:
//
//  * round_robin  -- the sequential activation-order baseline,
//  * max_gain     -- the sequential gain scheduler, i.e. parallel_mgm with
//                    one shard (one warm + full proposal pass per single
//                    committed move),
//  * parallel_mgm -- the round-based sharded kernel (one warm + full
//                    proposal pass per *batch* of non-conflicting moves).
//
// parallel_mgm pays the same per-round proposal cost as max_gain but
// commits up to one move per shard, so moves/sec is the headline number;
// rounds-to-convergence (reported whenever the run converged within
// budget) is the experimental axis the paper's sequential dynamics never
// had.  The small tier runs best_single_move to convergence; the large
// tier (n = 4096) runs the approx-ladder rule with a bounded repair cap
// under a fixed move budget -- sequential budgets are smaller there (a
// sequential move costs a full proposal round) and throughput is the
// comparison, not totals.
//
// The serialized-result determinism contract (1 vs N threads) is probed
// inline on the smallest size per host: serial and pool runs must agree
// on moves, rounds and the final profile, else the bench exits 3.
//
// Output is one JSON document on stdout (recorded as BENCH_mgm.json).
// The process refuses to run from a non-optimized build (--allow-debug
// overrides, never for recorded numbers).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/dynamics.hpp"
#include "core/profile_gen.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace gncg {
namespace {

struct MgmRow {
  std::string host;
  int n = 0;
  std::string scheduler;
  std::string rule;
  std::uint64_t max_moves = 0;
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
  bool converged = false;
  std::size_t max_round_commits = 0;
  double commits_per_round = 0.0;
  double elapsed_ms = 0.0;
  double moves_per_sec = 0.0;
};

// Alphas are chosen on the tree-stable side (sparse equilibria) so the
// small tier actually converges within budget; starts are sparse random
// recursive trees for the same reason (a dense random start at n = 256
// costs minutes of proposal passes per run on a 1-CPU box).
Game make_bench_game(const std::string& host, int n, Rng& rng) {
  if (host == "euclidean")
    return Game(HostGraph::from_points(uniform_points(n, 2, 1000.0, rng), 2.0),
                400.0);
  return Game(random_one_two_host(n, 0.5, rng), 6.0);
}

DynamicsOptions make_options(SchedulerKind scheduler, MoveRule rule,
                             std::uint64_t max_moves) {
  DynamicsOptions options;
  options.scheduler = scheduler;
  options.rule = rule;
  options.max_moves = max_moves;
  options.seed = 17;
  options.detect_cycles = true;
  options.record_steps = false;
  if (rule == MoveRule::kApproxLadder) {
    options.approx_budget = 8;
    options.approx_repair_cap = 256;  // adaptive-radius bounded probes
  }
  return options;
}

MgmRow bench_one(const Game& game, const std::string& host, int n,
                 SchedulerKind scheduler, MoveRule rule,
                 std::uint64_t max_moves, const StrategyProfile& start) {
  const DynamicsOptions options = make_options(scheduler, rule, max_moves);
  const Stopwatch timer;
  const DynamicsResult result = run_dynamics(game, start, options);
  MgmRow row;
  row.host = host;
  row.n = n;
  row.scheduler = std::string(scheduler_name(scheduler));
  row.rule = std::string(move_rule_name(rule));
  row.max_moves = max_moves;
  row.moves = result.moves;
  row.rounds = result.rounds;
  row.converged = result.converged;
  row.max_round_commits = result.max_round_commits;
  row.commits_per_round =
      result.rounds > 0
          ? static_cast<double>(result.moves) /
                static_cast<double>(result.rounds)
          : 0.0;
  row.elapsed_ms = timer.millis();
  row.moves_per_sec = row.elapsed_ms > 0.0
                          ? 1000.0 * static_cast<double>(result.moves) /
                                row.elapsed_ms
                          : 0.0;
  return row;
}

/// Serial-vs-pool determinism probe for the MGM kernel: identical moves,
/// rounds and final profile at 1 thread and at the full pool, else exit 3.
void probe_determinism(const Game& game, const std::string& host, int n,
                       MoveRule rule, std::uint64_t max_moves,
                       const StrategyProfile& start) {
  const DynamicsOptions options =
      make_options(SchedulerKind::kParallelMgm, rule, max_moves);
  set_default_thread_count(1);
  const DynamicsResult serial = run_dynamics(game, start, options);
  set_default_thread_count(0);  // restore the pool
  const DynamicsResult pool = run_dynamics(game, start, options);
  if (serial.moves != pool.moves || serial.rounds != pool.rounds ||
      !(serial.final_profile == pool.final_profile)) {
    std::fprintf(stderr,
                 "FAIL: parallel_mgm serial/pool results diverge on %s n=%d\n",
                 host.c_str(), n);
    std::exit(3);
  }
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
      std::fprintf(stderr, "usage: bench_mgm [--smoke] [--allow-debug]\n");
      return 1;
    }
  }

  if (!gncg::bench::require_release(allow_debug, "bench_mgm")) return 2;

  const unsigned num_cpus = std::thread::hardware_concurrency();
  if (num_cpus <= 1)
    std::fprintf(stderr,
                 "bench_mgm: only %u CPU(s) visible; parallel_mgm round "
                 "throughput measures batching, not parallel speedup.\n",
                 num_cpus);

  constexpr gncg::SchedulerKind kSchedulers[] = {
      gncg::SchedulerKind::kRoundRobin, gncg::SchedulerKind::kMaxGain,
      gncg::SchedulerKind::kParallelMgm};

  const std::vector<int> sizes =
      smoke ? std::vector<int>{64} : std::vector<int>{256, 4096};
  std::vector<gncg::MgmRow> rows;
  for (const std::string host : {"dense", "euclidean"}) {
    bool probed = false;
    for (int n : sizes) {
      gncg::Rng rng(20260808u + static_cast<std::uint64_t>(n) +
                    (host == "euclidean" ? 1u : 0u));
      const gncg::Game game = gncg::make_bench_game(host, n, rng);
      // Small tier: best_single_move to convergence.  Large tier:
      // approx-ladder under bounded budgets (a sequential move costs a
      // full proposal round, so sequential budgets are smaller).
      const bool large = n >= 1024;
      const gncg::StrategyProfile start =
          gncg::recursive_tree_profile(game, rng);
      const gncg::MoveRule rule = large ? gncg::MoveRule::kApproxLadder
                                        : gncg::MoveRule::kBestSingleMove;
      const std::uint64_t mgm_budget = smoke ? 150 : (large ? 64 : 800);
      const std::uint64_t seq_budget = smoke ? 150 : (large ? 8 : 800);
      if (!probed) {
        gncg::probe_determinism(game, host, n, rule, smoke ? 40 : 60, start);
        probed = true;
      }
      for (const gncg::SchedulerKind scheduler : kSchedulers) {
        const std::uint64_t budget =
            scheduler == gncg::SchedulerKind::kParallelMgm ? mgm_budget
                                                           : seq_budget;
        rows.push_back(gncg::bench_one(game, host, n, scheduler, rule,
                                       budget, start));
        const gncg::MgmRow& row = rows.back();
        std::fprintf(stderr,
                     "%s n=%-5d %-12s %-16s moves=%-5llu rounds=%-5llu "
                     "batch<=%-3zu %7.1f ms  %8.1f moves/s%s\n",
                     row.host.c_str(), row.n, row.scheduler.c_str(),
                     row.rule.c_str(),
                     static_cast<unsigned long long>(row.moves),
                     static_cast<unsigned long long>(row.rounds),
                     row.max_round_commits, row.elapsed_ms,
                     row.moves_per_sec, row.converged ? "  (converged)" : "");
      }
    }
  }

  std::printf("{\n");
  std::printf(
      "  \"description\": \"Parallel-MGM round kernel vs sequential "
      "schedulers: identical start profiles per (host, n); parallel_mgm "
      "pays one warm + full proposal pass per committed *batch* where "
      "max_gain pays it per single move, so moves/sec is the headline and "
      "rounds is rounds-to-convergence whenever converged is true.  Small "
      "tier runs best_single_move to convergence; the n=4096 tier runs the "
      "approx-ladder rule (budget 8, repair_cap 256, adaptive radius) "
      "under bounded move budgets (sequential budgets smaller by design: "
      "a sequential move costs a full proposal round).\",\n");
  gncg::bench::print_context(
      std::string("./build/bench_mgm") + (smoke ? " --smoke" : ""),
      gncg::default_thread_count());
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf(
        "    {\"host\": \"%s\", \"n\": %d, \"scheduler\": \"%s\", "
        "\"rule\": \"%s\", \"max_moves\": %llu, \"moves\": %llu, "
        "\"rounds\": %llu, \"converged\": %s, \"max_round_commits\": %zu, "
        "\"commits_per_round\": %.2f, \"elapsed_ms\": %.1f, "
        "\"moves_per_sec\": %.1f}%s\n",
        r.host.c_str(), r.n, r.scheduler.c_str(), r.rule.c_str(),
        static_cast<unsigned long long>(r.max_moves),
        static_cast<unsigned long long>(r.moves),
        static_cast<unsigned long long>(r.rounds),
        r.converged ? "true" : "false", r.max_round_commits,
        r.commits_per_round, r.elapsed_ms, r.moves_per_sec,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
