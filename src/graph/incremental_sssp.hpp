// Incremental single-source shortest paths under edge *insertions*.
//
// Adding an edge incident to the source can only *decrease* distances.
// IncrementalSssp maintains the source's distance vector under such
// insertions for two users: the approximate-BR ladder's tier-1 exact
// probe repairs and commits (core/approx_br.cpp), and the facility-row builds of
// the best-response search (append_improvement_row: one single-insert
// repair per candidate, optionally capped, rolled back at once --
// core/br_search.cpp merges the rows instead of stacking repairs).  The
// operations:
//
//  * `reset(dist)` seeds the structure from a fully computed SSSP vector
//    (one Dijkstra per search, instead of one per visited subset);
//  * `relax_insert(v, cand, neighbor_fn)` applies the candidate distance
//    `cand` to node v (the far endpoint of the inserted edge) and, when it
//    improves, propagates the decrease with a bounded Dijkstra repair over
//    `neighbor_fn` -- only nodes whose distance actually shrinks are touched;
//  * every overwrite is recorded in a change log, so `rollback(checkpoint)`
//    restores the exact pre-insertion vector (bitwise: old doubles are
//    stored and replayed in reverse).
//
// Exactness: the repair is decrease-only Dijkstra seeded at the improved
// node.  With non-negative weights and monotone floating-point addition
// (fl(a + w) >= a and nondecreasing in a for w >= 0), the maintained vector
// equals the one a fresh Dijkstra over the augmented graph would produce:
// both are the least fixpoint d(t) = min over edges (x,t) of fl(d(x) + w),
// i.e. the minimum over all source-t paths of the left-to-right rounded path
// sum.  This is what lets the best-response engine stay bit-compatible with
// the naive one-Dijkstra-per-subset search (tests/test_incremental_sssp.cpp
// and the differential fuzz in tests/test_best_response.cpp are the gates).
//
// Bounded-frontier mode (PR 9): `relax_insert` optionally takes a
// FrontierPolicy that truncates the decrease-only propagation after a cap
// on distance overwrites.  A truncated repair leaves the maintained
// vector a per-node *upper* bound on the true fixpoint (every stored value
// is still the rounded length of a real path) and reports the minimum queue
// key F left unexplored.  The truncation invariant callers build floors on:
//
//     true(y) >= min(dist(y), F)   for every node y,
//
// because valid pop keys are nondecreasing, so every relaxation the cut
// frontier could still have produced writes a value >= F.  When the policy
// never fires the bounded loop executes the exact same instruction sequence
// as the unbounded one, so the vector is bitwise equal to the unbounded
// repair (and hence to a fresh Dijkstra) -- the common case when a probe's
// improvement is spatially local.  Rollback works identically in both
// modes: every overwrite is logged before the bound is consulted.
//
// Not thread-safe; parallel searches use one instance per worker.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"

namespace gncg {

/// Truncation policy for a bounded-frontier repair.  Default-constructed =
/// unbounded (the exact repair).
struct FrontierPolicy {
  /// Maximum distance overwrites per repair; 0 = unbounded.  Checked at pop
  /// time, so a repair performs at most node_cap + one adjacency list of
  /// relaxations.
  std::size_t node_cap = 0;

  bool bounded() const { return node_cap > 0; }
};

/// Outcome of one (possibly bounded) relax_insert.
struct RepairOutcome {
  /// True when the frontier policy cut the propagation: dist() is then a
  /// per-node upper bound and `frontier_min` carries the floor key.  False
  /// means the repair ran to the exact fixpoint (bitwise equal to the
  /// unbounded repair), the slack-0 case.
  bool truncated = false;
  /// Minimum queue key left unexplored at truncation (kInf when exact):
  /// true(y) >= min(dist(y), frontier_min) for every node y.
  double frontier_min = kInf;
};

class IncrementalSssp {
 public:
  /// Log position; pass to rollback() to undo everything recorded after it.
  using Checkpoint = std::size_t;

  /// Seeds from a computed SSSP vector (copied; the caller keeps the
  /// original for further branches).  Clears the change log.
  void reset(const std::vector<double>& dist);

  const std::vector<double>& dist() const { return dist_; }

  Checkpoint checkpoint() const { return log_.size(); }

  /// Offers the candidate distance `cand` to node v (for an inserted edge
  /// (source, v) of weight w, pass cand = w: the source's distance is 0 and
  /// never changes, so the repair never needs the new edge itself).  When it
  /// improves, propagates the decrease through `neighbor_fn(x, visit)` --
  /// which must enumerate the *rest* of the graph's edges (the environment;
  /// previously inserted source edges need no re-enumeration for the same
  /// reason the new one doesn't).  Every overwritten distance is logged.
  template <class NeighborFn>
  void relax_insert(int v, double cand, NeighborFn&& neighbor_fn) {
    relax_insert_impl<false>(v, cand, FrontierPolicy{}, neighbor_fn);
  }

  /// Bounded-frontier variant: the repair additionally honors `policy`,
  /// truncating the propagation once the node cap is hit (see the file
  /// comment for the floor invariant).  With an
  /// unbounded policy this is exactly relax_insert (same instruction
  /// sequence, outcome never truncated).
  template <class NeighborFn>
  RepairOutcome relax_insert(int v, double cand, const FrontierPolicy& policy,
                             NeighborFn&& neighbor_fn) {
    if (!policy.bounded())
      return relax_insert_impl<false>(v, cand, policy, neighbor_fn);
    return relax_insert_impl<true>(v, cand, policy, neighbor_fn);
  }

  /// Restores every distance overwritten since `mark`, newest first (a node
  /// improved twice ends up at its earliest logged value).
  void rollback(Checkpoint mark);

  /// Single-insert improvement row: appends to `row` every node t that
  /// relax_insert(v, cand, policy, neighbor_fn) lowers, once each, with its
  /// repaired distance, then rolls the vector back and returns the repair's
  /// outcome.  Rows of several candidates are therefore all repairs of the
  /// same vector.  Every inserted edge leaves the source, so with an
  /// unbounded policy the vector after inserting a set S is exactly the
  /// elementwise min of the current vector and the rows of S.  A row cut by
  /// the policy (outcome.truncated) keeps the truncation invariant instead:
  /// the true single-insert distance of every node y is
  /// >= min(min(current(y), row(y)), outcome.frontier_min).
  template <class NeighborFn>
  RepairOutcome append_improvement_row(
      int v, double cand, const FrontierPolicy& policy,
      NeighborFn&& neighbor_fn, std::vector<std::pair<int, double>>& row) {
    const Checkpoint mark = checkpoint();
    const RepairOutcome outcome = relax_insert(v, cand, policy, neighbor_fn);
    // A node lowered twice is logged twice: emit it at its oldest entry with
    // its final distance and mark it with a negative distance (distances
    // are >= 0), which the rollback below overwrites like any other entry.
    for (std::size_t e = mark; e < log_.size(); ++e) {
      const int t = log_[e].first;
      double& d = dist_[static_cast<std::size_t>(t)];
      if (d < 0.0) continue;
      row.emplace_back(t, d);
      d = -1.0;
    }
    rollback(mark);
    return outcome;
  }

  std::size_t footprint_bytes() const {
    return dist_.capacity() * sizeof(double) +
           log_.capacity() * sizeof(std::pair<int, double>) +
           queue_.footprint_bytes();
  }

 private:
  /// Shared repair body.  `Bounded` is a compile-time switch so the exact
  /// path carries no policy checks (identical machine code to the
  /// pre-bounded kernel).  The cap test runs at pop time against the queue
  /// minimum, so `frontier_min` is exactly the cheapest improvement
  /// left unexplored and the relaxation count overshoots the cap by at most
  /// one adjacency list.
  template <bool Bounded, class NeighborFn>
  RepairOutcome relax_insert_impl(int v, double cand,
                                  const FrontierPolicy& policy,
                                  NeighborFn&& neighbor_fn) {
    RepairOutcome outcome;
    const std::size_t vi = static_cast<std::size_t>(v);
    GNCG_DASSERT(vi < dist_.size());
    if (!(cand < dist_[vi])) return outcome;
    GNCG_COUNT(kSsspRepairs);
    if constexpr (Bounded) GNCG_COUNT(kSsspBoundedRepairs);
    GNCG_IF_INSTRUMENT(std::uint64_t relaxations = 1;)
    [[maybe_unused]] std::size_t writes = 1;  // algorithmic cap, not metrics
    log_.emplace_back(v, dist_[vi]);
    dist_[vi] = cand;
    queue_.clear();
    queue_.push(cand, v);
    while (!queue_.empty()) {
      if constexpr (Bounded) {
        if (writes >= policy.node_cap) {
          // The queue's minimum key, in the (distance, node) order every
          // kernel pops in.  A stale minimum only lowers frontier_min, which
          // stays admissible.
          outcome.truncated = true;
          outcome.frontier_min = queue_.top().first;
          queue_.clear();
          GNCG_COUNT(kSsspBoundedTruncations);
          break;
        }
      }
      const auto [d, x] = queue_.pop();
      if (d > dist_[static_cast<std::size_t>(x)]) continue;  // stale entry
      neighbor_fn(x, [&](int y, double w) {
        GNCG_DASSERT(w >= 0.0);
        const double candidate = d + w;
        const std::size_t yi = static_cast<std::size_t>(y);
        if (candidate < dist_[yi]) {
          GNCG_IF_INSTRUMENT(++relaxations;)
          if constexpr (Bounded) ++writes;
          log_.emplace_back(y, dist_[yi]);
          dist_[yi] = candidate;
          queue_.push(candidate, y);
        }
      });
    }
    if (log_.size() > log_peak_) log_peak_ = log_.size();
    GNCG_COUNT_N(kSsspRepairRelaxations, relaxations);
    return outcome;
  }

  std::vector<double> dist_;
  std::vector<std::pair<int, double>> log_;
  detail::SsspQueue queue_;  ///< repair queue, recycled by reset()
  std::size_t log_peak_ = 0;  ///< high-water mark of the previous search
  /// Decaying need estimate driving reset()'s shrink policy: the estimate
  /// only halves per reset, so a workload alternating small and large
  /// searches (capped facility-row builds vs exact ones) keeps
  /// its capacity instead of shrink-then-regrowing every other reset.
  std::size_t log_need_ = 0;
};

}  // namespace gncg
