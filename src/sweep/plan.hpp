// Sweep plans: cartesian parameter grids expanded into deterministic jobs.
//
// A SweepPlan names scenarios and lists values for the canonical grid axes
// (host backend kind, n, alpha, p-norm, replicate seeds).  `expand` produces
// the job list in one fixed nesting order -- scenario, host, n, alpha,
// norm_p, seed -- assigning each job its position `point_index`.  A job's
// RNG stream is `stream_seed(scenario, point_index, seed)`: a pure function
// of the plan text, so results are bit-identical regardless of thread count
// or execution order, and a journal can name a job by its index alone.
//
// `fingerprint` hashes the expanded job list; the runner stamps it into the
// journal header and refuses to resume a journal recorded for a different
// plan (or a registry whose host support changed the expansion).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/scenario.hpp"

namespace gncg {

/// One job: a full parameter assignment for one scenario execution.
struct SweepPoint {
  std::string scenario;
  std::string host;        ///< backend kind: dense | lazy | euclidean | tree
  int n = 0;               ///< scenario size axis (agents, N, dimension d...)
  double alpha = 1.0;
  double norm_p = 2.0;     ///< p-norm (euclidean hosts; 2.0 elsewhere)
  std::uint64_t seed = 0;  ///< replicate seed value
  std::uint64_t point_index = 0;  ///< position in the expanded plan

  /// Scenario-specific extra parameters (sorted by name at expansion).
  std::vector<std::pair<std::string, double>> extras;

  /// Extra parameter lookup with fallback.
  double extra_or(std::string_view name, double fallback) const;

  /// Count-valued extra (restarts, max_moves, repair_cap, ...) read as T.
  /// Contract-fails, naming the scenario, the key and the value, unless the
  /// value is a finite non-negative integer that fits T: a plain cast would
  /// be undefined for a negative or oversized value and would drop a
  /// fraction.
  template <typename T>
  T count_or(std::string_view name, double fallback) const {
    return static_cast<T>(
        checked_count(name, fallback, std::numeric_limits<T>::digits));
  }

  /// count_or's check: the extra's value, required to be an integer in
  /// [0, 2^bits).
  double checked_count(std::string_view name, double fallback,
                       int bits) const;

  /// The job's derived RNG stream seed (see support/rng.hpp).
  std::uint64_t rng_stream() const {
    return stream_seed(scenario, point_index, seed);
  }
};

/// A cartesian grid over scenarios x canonical axes (+ shared extras).
struct SweepPlan {
  std::vector<std::string> scenarios;
  std::vector<std::string> hosts = {"dense"};
  std::vector<int> ns = {5};
  std::vector<double> alphas = {1.0};
  std::vector<double> norm_ps = {2.0};  ///< expanded for euclidean hosts only
  std::uint64_t seeds = 1;              ///< replicate count
  std::uint64_t seed_base = 0;          ///< first replicate seed value
  std::vector<std::pair<std::string, double>> extras;

  /// Expands the grid into jobs in the fixed nesting order.  Contract-fails
  /// on unknown scenario names, on a scenario supporting none of the
  /// requested hosts, and on empty axes.  Non-euclidean hosts take a single
  /// canonical norm_p = 2.0 instead of multiplying by the norm axis.
  std::vector<SweepPoint> expand(const ScenarioRegistry& registry) const;

  /// Order-sensitive hash of the expanded job list.
  std::uint64_t fingerprint(const ScenarioRegistry& registry) const;
};

/// Hash of one expanded point (fingerprint building block; exposed so tests
/// can pin journal compatibility).
std::uint64_t point_fingerprint(const SweepPoint& point);

/// Order-sensitive hash of an already-expanded job list (what
/// SweepPlan::fingerprint computes; callers holding the expansion avoid
/// expanding the grid a second time).
std::uint64_t sweep_fingerprint(const std::vector<SweepPoint>& points);

}  // namespace gncg
