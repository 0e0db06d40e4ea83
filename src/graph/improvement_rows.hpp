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
// c_x(t) >= min(row_x(t), F_x) against the exact single-insert vector c_x,
// so the merged vector m_S and the path frontier PF = min over x in S of
// F_x satisfy
//     d_S(t) >= min(m_S(t), PF)   for every node t,
// with no stacked repairs: every row is a repair of the same base vector.
// With PF = kInf the merge is the exact vector bit for bit.
//
// RowFloor sums the per-node floor
//     term_theta(t, x) = theta < kInf ? max(h(t), min(x, theta)) : x
// over a vector that differs from a reference vector `ref` only at the
// nodes some rows lowered:
//     sum_t term(x_t) = G(theta) + delta,
//     delta = sum over lowering entries e of (term(new_e) - term(old_e)),
// with G(theta) = sum_t term(ref_t) precomputed once per threshold.  The
// entries are the writes of a min-merge log, or one per touched node (old =
// ref); either way they telescope per node.  The estimate costs O(entries),
// not O(n), and is returned padded on both sides: the canonical in-order
// sum (the value a search would record or prune on) lies inside [lo, hi].
// Callers decide on the interval and pay the O(n) canonical sum only when
// it straddles their bound.
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

  /// G(theta), or NaN when theta was not among the thresholds.
  double reference_sum(double theta) const;

  /// Bracket of G(theta) + delta, where delta sums `entries` lowering
  /// differences term(new) - term(old).  Unbounded when G(theta) is unknown
  /// (theta not among the thresholds) or infinite: the canonical sum must
  /// then decide.  With no entries, the upper end also bounds every vector
  /// below the reference: lowering only shrinks terms.
  Interval bracket(double theta, double delta, std::size_t entries) const;

  /// Bracket of sum_t term_theta(t, dist(t)), where `dist` equals the
  /// reference vector except at the nodes `undo` lowered: `undo` is a
  /// min-merge log of (node, overwritten value) pairs that took ref to dist,
  /// and a node's first entry is the one whose old value equals ref.
  Interval merged(double theta, const std::vector<double>& dist,
                  const std::vector<std::pair<int, double>>& undo) const {
    return bracket(theta, merged_delta(theta, dist, undo), undo.size());
  }

  /// The delta merged() brackets: one entry per node `undo` touched.
  double merged_delta(double theta, const std::vector<double>& dist,
                      const std::vector<std::pair<int, double>>& undo) const;

  /// Bracket of sum_t term_theta(t, min(ref(t), row(t))) for one row of
  /// distinct nodes.
  Interval with_row(double theta,
                    const std::vector<std::pair<int, double>>& row) const;

  std::size_t footprint_bytes() const {
    return sums_.capacity() * sizeof(std::pair<double, double>);
  }

 private:
  const std::vector<double>* host_row_ = nullptr;
  const std::vector<double>* ref_ = nullptr;
  std::vector<std::pair<double, double>> sums_;  ///< (theta, G), by theta
};

}  // namespace gncg
