// Deterministic parallel multi-restart dynamics driver.
//
// Equilibrium sampling, heuristic FIP/cycle hunting and scheduler ablations
// all run the same outer loop: many independent dynamics runs from random
// start profiles.  `run_restarts` is that loop, industrialized:
//
//  * Restart i's randomness is the stream `stream_seed(label, i, seed)`
//    (the PR 3 sweep contract): the start profile and the run's scheduler
//    randomness are a pure function of (label, i, seed), so the report is
//    bit-identical for any thread count and any execution order.
//  * Restarts fan out over the shared worker pool; each pool worker reuses
//    one DeviationEngine via set_profile instead of constructing one per
//    restart.  Nested use (from inside a sweep scenario already running on
//    the pool) degrades to serial, by design -- results are unchanged.
//  * Found cycles can be replay-verified in place (the heuristic FIP
//    searches want only certified witnesses).
//
// Aggregate statistics (moves-to-convergence quantiles, convergence and
// cycle counts) are folded in restart order after the parallel phase, so
// they are deterministic too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dynamics.hpp"
#include "core/game.hpp"
#include "core/profile_gen.hpp"
#include "support/stats.hpp"

namespace gncg {

struct RestartOptions {
  int restarts = 16;
  std::uint64_t seed = 1;
  /// Stream namespace: restart i draws from stream_seed(label, i, seed).
  /// Two drivers with the same label, seed and start kind face identical
  /// start profiles (how ablations compare policies on equal footing).
  std::string label = "restarts";

  /// Per-run template.  `seed` is ignored (derived per restart) and
  /// `observer` must be null: observers are per-run, the pool would
  /// interleave their callbacks.
  DynamicsOptions dynamics;

  /// Start-profile family and its parameter (core/profile_gen.hpp).
  StartProfileKind start = StartProfileKind::kSpanningRandom;
  double extra_edge_prob = 0.15;

  /// When non-empty, restart i runs under scheduler_cycle[i % size()],
  /// overriding dynamics.scheduler -- the classic cycle-hunting grid.
  std::vector<SchedulerKind> scheduler_cycle;

  /// Replay-verify every found cycle (requires dynamics.record_steps).
  /// Verification demands exact best responses when the move rule is
  /// kBestResponse, strict improvement otherwise.  To bound memory, the
  /// step traces of runs WITHOUT a verified cycle are dropped after
  /// verification (cycle hunters read only the witness's trace; aggregate
  /// step_gains stay).
  bool verify_cycles = false;

  /// Skip restarts whose index exceeds the smallest verified-cycle index
  /// found so far (requires verify_cycles) -- the cycle-hunting early
  /// exit.  The *first verified cycle in restart order* stays exactly the
  /// one an exhaustive fan-out would report (a restart at index i is only
  /// skipped when some verified cycle exists at index < i, so the minimal
  /// verified index always executes, as does everything below it), but
  /// which later restarts run depends on pool timing: the report's
  /// aggregate counters are NOT thread-count-invariant under this flag.
  /// Skipped runs are marked RestartRun::skipped.
  bool stop_after_verified_cycle = false;
};

/// One restart's outcome.
struct RestartRun {
  std::uint64_t stream = 0;  ///< the restart's derived stream seed
  /// The scheduler this restart ran, as its scheduler_name() journal tag
  /// (the scheduler_cycle entry when set, else dynamics.scheduler).
  std::string scheduler;
  DynamicsResult result;
  bool cycle_verified = false;  ///< set only under verify_cycles
  bool skipped = false;  ///< cancelled by stop_after_verified_cycle
};

struct RestartReport {
  std::vector<RestartRun> runs;  ///< indexed by restart id
  std::size_t converged = 0;
  std::size_t cycles_found = 0;
  std::size_t cycles_verified = 0;
  /// Moves of converged runs, folded in restart order.
  SampleStats moves_to_convergence;
  /// Sum over runs of confirmed transposition-hash collisions.
  std::uint64_t hash_collisions = 0;
};

/// Runs `options.restarts` independent dynamics runs over the worker pool.
RestartReport run_restarts(const Game& game, const RestartOptions& options);

}  // namespace gncg
