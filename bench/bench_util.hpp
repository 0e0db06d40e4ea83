// Shared helpers for the experiment benches: every bench prints
// paper-value vs measured-value rows through these utilities.  perfbench
// shares the build-type stamp and the release-only gate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/game.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace gncg::bench {

/// Measured / expected agreement marker for result tables.
inline std::string verdict(double measured, double expected,
                           double tolerance = 1e-6) {
  if (!(expected < kInf) && !(measured < kInf)) return "ok";
  const double scale = std::max({1.0, std::abs(expected), std::abs(measured)});
  return std::abs(measured - expected) <= tolerance * scale ? "ok" : "MISMATCH";
}

/// "holds" / "VIOLATED" marker for one-sided bounds.
inline std::string bound_verdict(double measured, double bound,
                                 double tolerance = 1e-6) {
  return measured <= bound + tolerance * std::max(1.0, std::abs(bound))
             ? "holds"
             : "VIOLATED";
}

/// Social-cost ratio of a claimed equilibrium profile over a reference
/// network (the measured PoA contribution of a construction).
inline double measured_ratio(const Game& game, const StrategyProfile& ne,
                             const std::vector<Edge>& optimum) {
  return social_cost(game, ne) / network_social_cost(game, optimum);
}

/// Build type the bench binary was compiled as.  Benches and the library
/// build in one tree, so this is also the library's build type.
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// The shared refusal gate: benchmarks never record numbers from
/// non-optimized builds.  Returns false (after printing why) when the bench
/// must exit instead of running; callers `return 2` on false.
inline bool require_release(bool allow_debug, const char* bench_name) {
#ifdef NDEBUG
  (void)allow_debug;
  (void)bench_name;
  return true;
#else
  if (allow_debug) return true;
  std::fprintf(stderr,
               "%s: refusing to record numbers from a non-optimized build "
               "(NDEBUG is not set).\n"
               "Configure with -DCMAKE_BUILD_TYPE=Release, or pass "
               "--allow-debug for a non-recorded run.\n",
               bench_name);
  return false;
#endif
}

}  // namespace gncg::bench
