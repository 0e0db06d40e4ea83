// Single-insert improvement rows and their O(touched) sum floors.
//
// Every edge a deviating agent u buys leaves u, so a shortest path from u
// uses at most one of them, first.  For a candidate set S the distance
// vector is therefore the min-merge
//     d_S(t) = min(base(t), min over x in S of row_x(t)),
// where row_x lists what the single-insert repair of the base vector by the
// edge (u, x) lowers (IncrementalSssp::append_improvement_row) -- the
// paper's Theorem 3 reduction of best response to facility location.
//
// A row built under a FrontierPolicy cap lists only what the capped repair
// lowered and records the repair's frontier key F_x (kInf when the repair
// ran exact).  Each capped row keeps the truncation invariant
// c_x(t) >= min(row_x(t), F_x) against the exact single-insert vector c_x.
// Only exact rows are merged (the best-response search); a capped row is
// read alone, as one probe of the approximate ladder's tier 1.
//
// RowFloor sums the per-node floor
//     term_theta(t, x) = theta < kInf ? max(h(t), min(x, theta)) : x
// over min(ref, row) for one row, where `ref` is a reference vector:
//     sum_t term(min(ref_t, row_t)) = G(theta) + delta,
//     delta = sum over row entries e below ref of (term(row_e) - term(ref_e)),
// with G(theta) = sum_t term(ref_t) precomputed once per threshold.  With
// `ref` the exact vector d of a strategy S and an exact row (theta = kInf)
// the sum is the canonical distance sum of S + x; with `ref` the base
// vector and a capped row at theta = F_x it is an admissible floor on the
// distance sum of x alone.
// The estimate costs O(row), not O(n), and is returned padded on both
// sides: the canonical in-order sum lies inside [lo, hi].  Callers decide
// on the interval and pay the O(n) canonical sum only when it can win.
//
// FP admissibility of the padding.  All terms are non-negative and a
// node's entries only lower it, so every partial sum is bounded by G and
// the entries' |delta_e| telescope to at most G.  With u_r = eps/2 and m
// entries, the in-order G loses at most (n-1) u_r G, the entry differences
// round by at most u_r G in total, their sum loses at most m u_r G and the
// final add u_r G; the canonical sum itself is within (n-1) u_r G of the
// real value.  Together |estimate - canonical| <= (2n + m + 1) u_r G up to
// second-order terms, and slack = 4 (n + m) eps G covers it with a margin
// above 2x.  (Distances are assumed normal numbers, as in the deviation
// engine's addition floor.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"

namespace gncg {

/// A table of single-insert improvement rows, one slot per candidate.
struct ImprovementRows {
  /// entries[i]: (node, distance) for every node row i lowers below the
  /// base vector, each node once.  Slots past size() keep their storage.
  std::vector<std::vector<std::pair<int, double>>> entries;
  /// frontier[i]: row i's truncation key F_i, kInf when the row is exact.
  std::vector<double> frontier;

  std::size_t size() const { return frontier.size(); }

  /// Sizes the table to `count` rows: the first min(size(), count) rows
  /// stay, added rows start empty and exact.
  void resize(std::size_t count);

  std::size_t footprint_bytes() const;
};

/// O(touched) sums of the per-node floor over vectors that differ from a
/// reference vector at a few nodes (see the file comment).
class RowFloor {
 public:
  /// Bracket of a canonical sum: lo <= canonical <= hi.
  struct Interval {
    double lo;
    double hi;
  };

  /// Per-node floor term_theta(t, x).
  static double term(double host, double x, double theta) {
    return theta < kInf ? std::max(host, std::min(x, theta)) : x;
  }

  /// Precomputes G(theta) for every theta in `thresholds` (kInf allowed,
  /// duplicates collapse), each in increasing node order, so G(theta) is
  /// bitwise the canonical sum of `ref` itself.  `host_row` and `ref` must
  /// outlive every later query.
  void build(const std::vector<double>& host_row,
             const std::vector<double>& ref,
             const std::vector<double>& thresholds);

  /// Bracket of sum_t term_theta(t, min(ref(t), row(t))) for one row of
  /// distinct nodes.  Unbounded when theta was not among the thresholds or
  /// G(theta) is infinite: the canonical sum must then decide.
  Interval with_row(double theta,
                    const std::vector<std::pair<int, double>>& row) const;

  std::size_t footprint_bytes() const {
    return sums_.capacity() * sizeof(std::pair<double, double>);
  }

 private:
  /// G(theta), or NaN when theta was not among the thresholds.
  double reference_sum(double theta) const;

  const std::vector<double>* host_row_ = nullptr;
  const std::vector<double>* ref_ = nullptr;
  std::vector<std::pair<double, double>> sums_;  ///< (theta, G), by theta
};

}  // namespace gncg
