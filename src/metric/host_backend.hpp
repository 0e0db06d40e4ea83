// Host-metric backends: serve host weight and host-distance queries with or
// without a dense O(n^2) matrix.
//
// The paper's headline models are *geometric*: Rd-GNCG hosts are p-norm
// point sets and T-GNCG hosts are tree metrics, where w(u, v) is computable
// in O(d) resp. O(1) and the metric closure coincides with the weights.  A
// HostBackend abstracts the storage question away from HostGraph / Game so
// that
//   * small or genuinely dense instances keep the materialized-matrix path
//     (kDense: weights matrix + full Floyd-Warshall closure, computed once
//     on first distance query), while
//   * large geometric instances never allocate an O(n^2) weight or closure
//     matrix at all (kEuclidean / kTree), and
//   * dense non-metric hosts can trade the eager O(n^3) closure for
//     row-granular Dijkstra on demand (kLazyClosure).
//
// Query contract (what DeviationEngine, best_response and Game rely on):
//   * `weight`, `host_distance` and `host_distance_sum` are const,
//     thread-safe and stable: repeated calls with the same arguments return
//     bit-identical values for the lifetime of the backend.
//   * `host_distance(u, v)` is the shortest-path closure of `weight`; on
//     metric backends (euclidean, tree) the two coincide.
//   * `host_distance_sum(u)` equals the sum of host_distance(u, v) over v in
//     increasing index order, bit for bit (the exact summation order
//     matters: best-response search sums the host row it builds anyway as
//     its global floor, and the naive search calls host_distance_sum; the
//     two must agree).  Dense and lazy backends serve it from the closure
//     they store; implicit backends (euclidean, tree) sum one row per call
//     -- O(n d) resp. O(n) LCA queries -- and keep no all-pairs sum cache,
//     so callers query each u at most once per computation.
//   * Lazily computed state (dense closure, lazy rows, spatial index) is
//     synchronized internally; callers never observe partially filled rows.
//   * `candidate_targets(u, budget, out)` is the spatial candidate oracle:
//     a deterministic, (weight, id)-sorted shortlist of purchase targets the
//     approximate best-response ladder searches over.  Same stability and
//     thread-safety rules as every other query.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/distance_matrix.hpp"
#include "metric/points.hpp"
#include "metric/spatial_index.hpp"
#include "metric/tree.hpp"

namespace gncg {

/// Storage/query strategy of a host graph.
enum class HostBackendKind {
  kDense,        ///< materialized weights + eager-once Floyd-Warshall closure
  kLazyClosure,  ///< materialized weights, closure rows Dijkstra'd on demand
  kEuclidean,    ///< implicit p-norm weights from a PointSet (closure == w)
  kTree,         ///< implicit tree-metric weights via LCA (closure == w)
};

/// Stable lower-case token ("dense", "lazy", "euclidean", "tree") used by
/// instance_io and the CLI tools.
std::string backend_name(HostBackendKind kind);

/// Abstract host-metric oracle.  Implementations are immutable after
/// construction up to internal, synchronized caches.
class HostBackend {
 public:
  virtual ~HostBackend() = default;

  virtual HostBackendKind kind() const = 0;
  virtual int node_count() const = 0;

  /// Host edge weight w(u, v) (kInf encodes a forbidden edge).
  virtual double weight(int u, int v) const = 0;

  /// Shortest-path distance d_H(u, v) in the host.
  virtual double host_distance(int u, int v) const = 0;

  /// Sum over v (in increasing index order) of host_distance(u, v).
  virtual double host_distance_sum(int u) const = 0;

  /// Integer-weight capability: when every finite value `weight` can return
  /// is a non-negative integer, returns a positive upper bound on those
  /// values; returns 0.0 when the capability is absent (fractional,
  /// unbounded or unknown weights).  Gates the bucket-queue (dial) Dijkstra
  /// kernel.  Stable and thread-safe like every other query.
  virtual double integer_weight_bound() const { return 0.0; }

  /// The backing weight matrix when this backend stores one (dense / lazy
  /// closure), nullptr for implicit backends.  HostGraph uses this for a
  /// branch-free fast path on `weight`.
  virtual const DistanceMatrix* dense_weights() const { return nullptr; }

  /// Materializes the full weight matrix (O(n^2); small-n escape hatch for
  /// consumers that genuinely need a matrix, e.g. spanner construction).
  virtual DistanceMatrix materialize_weights() const;

  /// Materializes the full closure matrix (O(n^2) queries; small-n only).
  virtual DistanceMatrix materialize_closure() const;

  /// Spatial candidate oracle: fills `out` with at most `budget` purchase
  /// targets for node u (never u itself, never forbidden kInf pairs),
  /// sorted by (weight, id) ascending.  Deterministic, stable and
  /// thread-safe like every other query, so restricted best-response
  /// searches over the returned list are reproducible bit-for-bit.
  ///
  /// Default implementation (dense / lazy / tree): all finite-weight
  /// targets sorted by (weight, id), truncated to `budget` -- with
  /// budget >= n-1 this is exactly the unrestricted candidate list, which
  /// is what keeps restricted-search differential gates meaningful.  The
  /// euclidean backend overrides this with grid-accelerated locality
  /// queries (see metric/spatial_index.hpp).
  virtual void candidate_targets(int u, int budget,
                                 std::vector<int>& out) const;
};

/// Dense backend: the seed representation.  Owns the complete weight matrix;
/// the Floyd-Warshall closure and its row sums are computed once, on the
/// first host_distance / host_distance_sum query (games that never ask for
/// host distances no longer pay the O(n^3) closure).
class DenseHostBackend final : public HostBackend {
 public:
  explicit DenseHostBackend(DistanceMatrix weights);

  HostBackendKind kind() const override { return HostBackendKind::kDense; }
  int node_count() const override { return weights_.size(); }
  double weight(int u, int v) const override { return weights_.at(u, v); }
  double host_distance(int u, int v) const override;
  double host_distance_sum(int u) const override;
  double integer_weight_bound() const override;
  const DistanceMatrix* dense_weights() const override { return &weights_; }
  DistanceMatrix materialize_weights() const override { return weights_; }
  DistanceMatrix materialize_closure() const override;

 private:
  void ensure_closure() const;

  DistanceMatrix weights_;
  mutable std::once_flag closure_once_;
  mutable DistanceMatrix closure_;
  mutable std::vector<double> sums_;
  mutable std::once_flag int_bound_once_;
  mutable double int_bound_ = 0.0;
};

/// Lazy-closure backend: owns the weight matrix but computes closure *rows*
/// on demand (one O(n^2) dense Dijkstra per distinct queried source) instead
/// of the eager O(n^3) Floyd-Warshall.  Wins whenever a workload touches
/// host distances of only a few agents (best-response pruning, incremental
/// dynamics) on a non-metric host too large for the cubic closure.
class LazyClosureHostBackend final : public HostBackend {
 public:
  explicit LazyClosureHostBackend(DistanceMatrix weights);

  HostBackendKind kind() const override {
    return HostBackendKind::kLazyClosure;
  }
  int node_count() const override { return weights_.size(); }
  double weight(int u, int v) const override { return weights_.at(u, v); }
  double host_distance(int u, int v) const override;
  double host_distance_sum(int u) const override;
  double integer_weight_bound() const override;
  const DistanceMatrix* dense_weights() const override { return &weights_; }
  DistanceMatrix materialize_weights() const override { return weights_; }

  /// Number of closure rows computed so far (observability for benches).
  int rows_computed() const;

 private:
  const std::vector<double>& row(int u) const;

  DistanceMatrix weights_;
  mutable std::once_flag int_bound_once_;
  mutable double int_bound_ = 0.0;
  mutable std::mutex fill_mutex_;
  mutable std::vector<std::vector<double>> rows_;
  mutable std::vector<double> sums_;
  // One release/acquire flag per row: readers that observe `ready` see the
  // fully written row without taking the mutex.
  mutable std::unique_ptr<std::atomic<bool>[]> ready_;
};

/// Euclidean (Rd-GNCG) backend: n points in R^d under a p-norm.  Weights are
/// computed on demand in O(d); p-norms are metrics, so host_distance ==
/// weight and there is no closure to compute, ever.  host_distance_sum sums
/// one row per call in O(n d).  Memory: O(n * d).
class EuclideanHostBackend final : public HostBackend {
 public:
  EuclideanHostBackend(PointSet points, double p);

  HostBackendKind kind() const override { return HostBackendKind::kEuclidean; }
  int node_count() const override { return points_.size(); }
  double weight(int u, int v) const override {
    return u == v ? 0.0 : points_.distance(u, v, p_);
  }
  double host_distance(int u, int v) const override { return weight(u, v); }
  double host_distance_sum(int u) const override;

  /// Real-weight opt-out of the dial (bucket-queue) SSSP kernel: p-norm
  /// distances are generally irrational even on integer coordinates, so
  /// this backend never certifies the integer-weight capability and
  /// HostGraph::dial_weight_bound stays 0 on euclidean hosts -- geometric
  /// SSSP always takes the heap-queue kernel.  (Certifying the rare
  /// integral layouts, e.g. 1-norm grids, would take the O(n^2) pairwise
  /// scan this backend exists to avoid.)  Kept explicit rather than
  /// inherited so the opt-out is a documented decision, not an accident;
  /// tests/test_approx_br.cpp pins it.
  double integer_weight_bound() const override { return 0.0; }

  /// Grid-accelerated locality oracle: the `budget` nearest points united
  /// with the nearest point per angular cone (Yao-style directional
  /// coverage), (weight, id)-sorted.  budget >= n-1 falls back to the base
  /// full scan, bit-identical to the dense backends' ordering.  The grid is
  /// built once, on first query (O(n) memory, never O(n^2)).
  void candidate_targets(int u, int budget,
                         std::vector<int>& out) const override;

  const PointSet& points() const { return points_; }
  double norm_p() const { return p_; }

  /// The lazily built grid (observability for tests/benches); nullptr until
  /// the first restricted candidate_targets query.
  const SpatialIndex* spatial_index() const;

 private:
  void ensure_index() const;

  PointSet points_;
  double p_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<SpatialIndex> index_;
};

/// Tree-metric (T-GNCG) backend: the host is the metric closure of an
/// edge-weighted tree.  Distances are served as
///   d_T(u, v) = depth(u) + depth(v) - 2 * depth(lca(u, v))
/// with O(1) LCA queries (Euler tour + sparse-table RMQ).  host_distance_sum
/// sums one row per call by direct increasing-v summation of host_distance
/// (O(n) LCA queries) -- NOT by the O(n) rerooting identity, which sums in
/// a different association order and would break the backend contract's
/// "sum in increasing index order" guarantee.  Memory: O(n log n).
class TreeHostBackend final : public HostBackend {
 public:
  explicit TreeHostBackend(const WeightedTree& tree);

  HostBackendKind kind() const override { return HostBackendKind::kTree; }
  int node_count() const override { return n_; }
  double weight(int u, int v) const override { return host_distance(u, v); }
  double host_distance(int u, int v) const override;
  double host_distance_sum(int u) const override;
  double integer_weight_bound() const override { return int_bound_; }

  /// Lowest common ancestor of u and v (root is node 0's DFS root).
  int lca(int u, int v) const;

 private:
  int n_ = 0;
  double int_bound_ = 0.0;              ///< integer capability, set at build
  std::vector<double> depth_weighted_;  ///< weighted distance from the root
  std::vector<int> euler_;              ///< Euler tour node sequence
  std::vector<int> euler_level_;        ///< tree level at each tour position
  std::vector<int> first_visit_;        ///< first tour index of each node
  std::vector<std::vector<int>> sparse_;  ///< RMQ over tour positions
  std::vector<int> log2_;               ///< floor(log2) lookup
};

/// Factory helpers (shared so HostGraph copies stay cheap handles).
std::shared_ptr<const HostBackend> make_dense_backend(DistanceMatrix weights);
std::shared_ptr<const HostBackend> make_lazy_closure_backend(
    DistanceMatrix weights);
std::shared_ptr<const HostBackend> make_euclidean_backend(PointSet points,
                                                          double p);
std::shared_ptr<const HostBackend> make_tree_backend(const WeightedTree& tree);

}  // namespace gncg
