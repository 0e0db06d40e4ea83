// HostGraph: the complete weighted graph the game is played on, together
// with the paper's model taxonomy (Figure 1).
//
// Model relations (special case -> general):
//   NCG (all weights 1)
//     -> 1-2-GNCG (weights in {1,2})       -> M-GNCG -> GNCG
//     -> 1-inf-GNCG (weights in {1,inf})              -> GNCG
//   T-GNCG (tree metric closure)           -> M-GNCG -> GNCG
//   Rd-GNCG (p-norm points)                -> M-GNCG -> GNCG
//
// A HostGraph is a cheap shared handle over a HostBackend (see
// metric/host_backend.hpp): dense hosts keep the materialized symmetric
// weight matrix of the seed implementation (kInf encodes forbidden edges as
// in the 1-inf model), while geometric hosts (point sets, tree metrics)
// serve weights and host distances implicitly and never allocate an O(n^2)
// matrix.  The declared model class and the generating provenance (point
// set / tree) ride along so experiments can report where an instance came
// from, and copying a HostGraph -- which Game does by value -- shares the
// backend instead of duplicating matrices.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "graph/distance_matrix.hpp"
#include "metric/host_backend.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/rng.hpp"

namespace gncg {

/// Paper model classes, ordered roughly from most special to most general.
enum class ModelClass {
  kNCG,        ///< unweighted clique (all weights 1)
  kOneTwo,     ///< weights in {1, 2} (always metric)
  kOneInf,     ///< weights in {1, inf} (generally non-metric)
  kTree,       ///< metric closure of a weighted tree
  kEuclidean,  ///< p-norm distances of points in R^d
  kMetric,     ///< arbitrary metric weights
  kGeneral,    ///< arbitrary non-negative weights
};

/// Human-readable model name ("1-2-GNCG", "T-GNCG", ...).
std::string model_name(ModelClass model);

/// Inverse of model_name; nullopt for unknown names.
std::optional<ModelClass> model_from_name(const std::string& name);

/// Complete weighted host graph with model metadata.
class HostGraph {
 public:
  /// Builds a dense-backend host from an explicit weight matrix.
  /// Contract-checks symmetry, a zero diagonal and non-negative entries.
  /// `declared` records how the instance was generated (defaults to the
  /// general model).
  static HostGraph from_weights(DistanceMatrix weights,
                                ModelClass declared = ModelClass::kGeneral);

  /// Like from_weights, but closure rows are Dijkstra'd on demand instead of
  /// paying the eager O(n^3) Floyd-Warshall (see LazyClosureHostBackend).
  static HostGraph from_weights_lazy(
      DistanceMatrix weights, ModelClass declared = ModelClass::kGeneral);

  /// Metric closure of a weighted tree (the T-GNCG host).  Implicit
  /// tree-metric backend: no O(n^2) matrix is materialized.
  static HostGraph from_tree(const WeightedTree& tree);

  /// p-norm distances between points (the Rd-GNCG host).  Implicit
  /// euclidean backend: no O(n^2) matrix is materialized.
  static HostGraph from_points(const PointSet& points, double p);

  /// The original NCG: an unweighted clique (all weights 1).
  static HostGraph unit(int n);

  /// 1-inf host induced by an arbitrary unweighted graph: pairs joined by an
  /// edge get weight 1, everything else weight inf (cannot be bought).
  static HostGraph one_inf_from_graph(const WeightedGraph& g);

  int node_count() const { return n_; }

  /// Host edge weight w(u, v).  Branch-free matrix read on dense backends;
  /// O(d) / O(1) computation on implicit ones.
  double weight(int u, int v) const {
    return dense_weights_ != nullptr ? dense_weights_->at(u, v)
                                     : backend_->weight(u, v);
  }

  /// Shortest-path distance d_H(u, v) in the host (== weight on metric
  /// backends; closure row / matrix on dense ones, computed on first use).
  double host_distance(int u, int v) const {
    return backend_->host_distance(u, v);
  }

  /// Sum over v of host_distance(u, v) -- the admissible lower bound on any
  /// network's distance cost for agent u, served from the backend's cache.
  double host_distance_sum(int u) const {
    return backend_->host_distance_sum(u);
  }

  const HostBackend& backend() const { return *backend_; }
  HostBackendKind backend_kind() const { return backend_->kind(); }

  /// Spatial candidate oracle (see HostBackend::candidate_targets): at most
  /// `budget` purchase targets for u, (weight, id)-sorted, deterministic.
  /// Grid-accelerated on euclidean backends, weight-sorted truncation
  /// elsewhere; budget >= n-1 always yields the full candidate list.
  void candidate_targets(int u, int budget, std::vector<int>& out) const {
    backend_->candidate_targets(u, budget, out);
  }

  /// Backend integer-weight capability (see
  /// HostBackend::integer_weight_bound): positive bound or 0.0.
  double integer_weight_bound() const {
    return backend_->integer_weight_bound();
  }

  /// Bucket-queue eligibility: the backend's integer bound as an int when
  /// the capability is present *and* small enough that a C+1-ring dial queue
  /// beats the heap queue; 0 otherwise (use the heap).  SSSP kernels key
  /// off this single value.
  int dial_weight_bound() const {
    const double bound = backend_->integer_weight_bound();
    return (bound > 0.0 && bound <= kDialMaxWeight)
               ? static_cast<int>(bound)
               : 0;
  }

  /// Largest integer weight bound for which the dial kernel is used (rings
  /// are O(bound) memory per worker; beyond this the heap wins anyway).
  static constexpr double kDialMaxWeight = 4096.0;

  /// Dense weight matrix view.  On dense backends this is the backing
  /// matrix; on implicit backends the matrix is materialized (O(n^2)) once
  /// and cached -- a small-n escape hatch for matrix-shaped consumers
  /// (spanner construction, tests).  Large-n implicit workloads must not
  /// call this.
  const DistanceMatrix& weights() const;

  ModelClass declared_model() const { return declared_; }

  /// Full shortest-path closure matrix (O(n^2) memory; small-n only).
  DistanceMatrix shortest_path_closure() const {
    return backend_->materialize_closure();
  }

  /// True when all finite weights satisfy the triangle inequality (pairs
  /// with infinite weight are exempt: such edges are forbidden, not long).
  bool is_metric(double eps = 1e-9) const;

  bool is_unit() const;
  bool is_one_two() const;
  bool is_one_inf() const;
  bool has_infinite_weight() const;

  /// Most specific model class detectable from the weights alone (cannot
  /// distinguish tree/euclidean provenance; those stay kMetric).
  ModelClass classify(double eps = 1e-9) const;

  /// Generating point set, served from the euclidean backend (nullptr for
  /// every other backend -- the backend's copy is the single source of
  /// truth).
  const PointSet* points() const;
  std::optional<double> norm_p() const;

  /// Generating tree edges (present when built by from_tree; the backend
  /// keeps only LCA tables, so the edge list lives here).
  const std::optional<std::vector<Edge>>& tree_edges() const {
    return tree_edges_;
  }

 private:
  HostGraph(std::shared_ptr<const HostBackend> backend, ModelClass declared);

  static DistanceMatrix validated(DistanceMatrix weights);

  std::shared_ptr<const HostBackend> backend_;
  const DistanceMatrix* dense_weights_ = nullptr;  ///< into backend_, if dense
  int n_ = 0;
  ModelClass declared_;

  /// Lazily materialized weight matrix for implicit backends (shared across
  /// HostGraph copies; filled at most once).
  struct MaterializedWeights {
    std::once_flag once;
    DistanceMatrix matrix;
  };
  std::shared_ptr<MaterializedWeights> materialized_;

  std::optional<std::vector<Edge>> tree_edges_;
};

/// Random {1,2} host: each pair independently gets weight 1 with probability
/// `p_one`, else 2.  Every 1-2 assignment is metric (1+1 >= 2).
HostGraph random_one_two_host(int n, double p_one, Rng& rng);

/// Random metric host: a random symmetric weight matrix repaired into a
/// metric by shortest-path closure (weights in [w_min, w_max] pre-repair).
HostGraph random_metric_host(int n, Rng& rng, double w_min = 1.0,
                             double w_max = 10.0);

/// Random general (typically non-metric) host with i.i.d. uniform weights.
HostGraph random_general_host(int n, Rng& rng, double w_min = 1.0,
                              double w_max = 10.0);

/// Random 1-inf host from an Erdos-Renyi graph G(n, p_edge), conditioned on
/// connectivity (retries until the sampled graph is connected).
HostGraph random_one_inf_host(int n, double p_edge, Rng& rng);

}  // namespace gncg
