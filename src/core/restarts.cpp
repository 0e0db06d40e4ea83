#include "core/restarts.hpp"

#include <atomic>
#include <memory>
#include <utility>

#include "support/parallel.hpp"

namespace gncg {

namespace {

/// Per-pool-worker scratch: one engine reused across this worker's
/// restarts (set_profile instead of reconstruction).
struct Worker {
  std::unique_ptr<DeviationEngine> engine;
};

}  // namespace

RestartReport run_restarts(const Game& game, const RestartOptions& options) {
  GNCG_CHECK(options.restarts >= 0, "run_restarts needs restarts >= 0");
  GNCG_CHECK(options.dynamics.observer == nullptr,
             "run_restarts cannot share a StepObserver across pool workers; "
             "observe single runs via run_dynamics");
  GNCG_CHECK(!options.verify_cycles || options.dynamics.record_steps,
             "verify_cycles needs dynamics.record_steps (cycle replay reads "
             "the trace)");
  GNCG_CHECK(!options.stop_after_verified_cycle || options.verify_cycles,
             "stop_after_verified_cycle needs verify_cycles (it stops on "
             "*verified* witnesses only)");

  RestartReport report;
  report.runs.resize(static_cast<std::size_t>(options.restarts));
  const std::size_t total = report.runs.size();

  // Smallest restart index with a verified cycle so far (cycle-hunting
  // early exit): restarts above it are skipped.  Monotonically decreasing,
  // so the minimal verified index itself can never be skipped.
  std::atomic<std::size_t> first_verified{total};

  parallel_reduce<Worker>(
      0, total, [] { return Worker{}; },
      [&](Worker& worker, std::size_t i) {
        if (options.stop_after_verified_cycle &&
            i > first_verified.load(std::memory_order_relaxed)) {
          report.runs[i].skipped = true;
          return;
        }
        const std::uint64_t stream =
            stream_seed(options.label, i, options.seed);
        Rng rng(stream);
        StrategyProfile start = make_start_profile(
            game, rng, options.start, options.extra_edge_prob);

        DynamicsOptions dynamics = options.dynamics;
        if (!options.scheduler_cycle.empty()) {
          dynamics.scheduler =
              options.scheduler_cycle[i % options.scheduler_cycle.size()];
        }
        // The run's internal randomness continues the restart stream.
        dynamics.seed = rng();

        if (worker.engine == nullptr)
          worker.engine =
              std::make_unique<DeviationEngine>(game, std::move(start));
        else
          worker.engine->set_profile(std::move(start));

        RestartRun run;
        run.stream = stream;
        run.scheduler = std::string(scheduler_name(dynamics.scheduler));
        run.result = run_dynamics(*worker.engine, dynamics);
        if (options.verify_cycles) {
          if (run.result.cycle_found) {
            run.cycle_verified = verify_improvement_cycle(
                game, run.result.final_profile, run.result.cycle_steps(),
                /*require_best_response=*/dynamics.rule ==
                    MoveRule::kBestResponse);
            if (run.cycle_verified && options.stop_after_verified_cycle) {
              std::size_t expected = first_verified.load();
              while (i < expected &&
                     !first_verified.compare_exchange_weak(expected, i)) {
              }
            }
          }
          // Only a verified witness's trace is ever consumed; dropping the
          // rest keeps the report O(winner) instead of O(attempts * moves).
          if (!run.cycle_verified) {
            run.result.steps.clear();
            run.result.steps.shrink_to_fit();
          }
        }
        report.runs[i] = std::move(run);
      },
      [](Worker&, Worker&) {}, /*grain=*/1, /*serial_cutoff=*/2);

  // Deterministic aggregation: fold in restart order, never pool order
  // (under stop_after_verified_cycle the skipped tail makes the counters
  // timing-dependent; the first verified cycle itself stays deterministic).
  for (const RestartRun& run : report.runs) {
    if (run.skipped) continue;
    if (run.result.converged) {
      ++report.converged;
      report.moves_to_convergence.add(static_cast<double>(run.result.moves));
    }
    if (run.result.cycle_found) ++report.cycles_found;
    if (run.cycle_verified) ++report.cycles_verified;
    report.hash_collisions += run.result.hash_collisions;
  }
  return report;
}

}  // namespace gncg
