#include "metric/host_backend.hpp"

#include <algorithm>
#include <cmath>

#include "graph/apsp.hpp"
#include "support/assert.hpp"

namespace gncg {

namespace {

/// Largest weight the integer capability will certify.  Keeps the double ->
/// integer casts exact and the dial ring count bounded by construction.
constexpr double kMaxCertifiedIntegerWeight = 1e9;

bool is_certifiable_integer(double w) {
  return w >= 0.0 && w <= kMaxCertifiedIntegerWeight && w == std::floor(w);
}

/// Scans a weight matrix once: the max finite weight when every finite entry
/// is a small non-negative integer (at least 1.0 so "capable" is always
/// positive), 0.0 otherwise.
double integer_bound_of_matrix(const DistanceMatrix& weights) {
  const int n = weights.size();
  double bound = 1.0;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      const double w = weights.at(u, v);
      if (w == kInf) continue;
      if (!is_certifiable_integer(w)) return 0.0;
      bound = std::max(bound, w);
    }
  }
  return bound;
}

}  // namespace

std::string backend_name(HostBackendKind kind) {
  switch (kind) {
    case HostBackendKind::kDense: return "dense";
    case HostBackendKind::kLazyClosure: return "lazy";
    case HostBackendKind::kEuclidean: return "euclidean";
    case HostBackendKind::kTree: return "tree";
  }
  return "?";
}

DistanceMatrix HostBackend::materialize_weights() const {
  const int n = node_count();
  DistanceMatrix m(n, 0.0);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) m.set_symmetric(u, v, weight(u, v));
  return m;
}

DistanceMatrix HostBackend::materialize_closure() const {
  const int n = node_count();
  DistanceMatrix m(n, 0.0);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) m.set_symmetric(u, v, host_distance(u, v));
  return m;
}

void HostBackend::candidate_targets(int u, int budget,
                                    std::vector<int>& out) const {
  const int n = node_count();
  GNCG_DASSERT(u >= 0 && u < n);
  out.clear();
  if (budget <= 0) return;
  // All purchasable targets by (weight, id): the id-ascending scan plus a
  // stable-by-construction sort key makes the order deterministic, and the
  // full-budget list is exactly the unrestricted search's candidate set.
  std::vector<std::pair<double, int>> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (v == u) continue;
    const double w = weight(u, v);
    if (w == kInf) continue;
    order.emplace_back(w, v);
  }
  std::sort(order.begin(), order.end());
  if (static_cast<int>(order.size()) > budget)
    order.resize(static_cast<std::size_t>(budget));
  out.reserve(order.size());
  for (const auto& [w, v] : order) out.push_back(v);
}

// --- dense ----------------------------------------------------------------

DenseHostBackend::DenseHostBackend(DistanceMatrix weights)
    : weights_(std::move(weights)) {}

void DenseHostBackend::ensure_closure() const {
  std::call_once(closure_once_, [this] {
    closure_ = weights_;
    floyd_warshall(closure_);
    const int n = closure_.size();
    sums_.resize(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) {
      double total = 0.0;
      const double* row = closure_.row(u);
      for (int v = 0; v < n; ++v) total += row[v];
      sums_[static_cast<std::size_t>(u)] = total;
    }
  });
}

double DenseHostBackend::host_distance(int u, int v) const {
  ensure_closure();
  return closure_.at(u, v);
}

double DenseHostBackend::host_distance_sum(int u) const {
  ensure_closure();
  GNCG_DASSERT(u >= 0 && u < weights_.size());
  return sums_[static_cast<std::size_t>(u)];
}

DistanceMatrix DenseHostBackend::materialize_closure() const {
  ensure_closure();
  return closure_;
}

double DenseHostBackend::integer_weight_bound() const {
  std::call_once(int_bound_once_,
                 [this] { int_bound_ = integer_bound_of_matrix(weights_); });
  return int_bound_;
}

// --- lazy closure ---------------------------------------------------------

LazyClosureHostBackend::LazyClosureHostBackend(DistanceMatrix weights)
    : weights_(std::move(weights)) {
  const auto n = static_cast<std::size_t>(weights_.size());
  rows_.resize(n);
  sums_.assign(n, 0.0);
  ready_ = std::make_unique<std::atomic<bool>[]>(n);
  for (std::size_t i = 0; i < n; ++i)
    ready_[i].store(false, std::memory_order_relaxed);
}

const std::vector<double>& LazyClosureHostBackend::row(int u) const {
  GNCG_DASSERT(u >= 0 && u < weights_.size());
  const auto i = static_cast<std::size_t>(u);
  if (!ready_[i].load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(fill_mutex_);
    if (!ready_[i].load(std::memory_order_relaxed)) {
      closure_row(weights_, u, rows_[i]);
      double total = 0.0;
      for (double d : rows_[i]) total += d;
      sums_[i] = total;
      ready_[i].store(true, std::memory_order_release);
    }
  }
  return rows_[i];
}

double LazyClosureHostBackend::host_distance(int u, int v) const {
  return row(u)[static_cast<std::size_t>(v)];
}

double LazyClosureHostBackend::host_distance_sum(int u) const {
  row(u);
  return sums_[static_cast<std::size_t>(u)];
}

double LazyClosureHostBackend::integer_weight_bound() const {
  std::call_once(int_bound_once_,
                 [this] { int_bound_ = integer_bound_of_matrix(weights_); });
  return int_bound_;
}

int LazyClosureHostBackend::rows_computed() const {
  const auto n = static_cast<std::size_t>(weights_.size());
  int count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (ready_[i].load(std::memory_order_acquire)) ++count;
  return count;
}

// --- euclidean ------------------------------------------------------------

EuclideanHostBackend::EuclideanHostBackend(PointSet points, double p)
    : points_(std::move(points)), p_(p) {
  GNCG_CHECK(points_.size() >= 1, "euclidean backend needs at least one point");
  GNCG_CHECK(p >= 1.0, "p-norms require p >= 1");
}

double EuclideanHostBackend::host_distance_sum(int u) const {
  // One row per call, O(n d), summed in increasing v order (the contract).
  GNCG_DASSERT(u >= 0 && u < points_.size());
  double total = 0.0;
  for (int v = 0; v < points_.size(); ++v) total += weight(u, v);
  return total;
}

void EuclideanHostBackend::ensure_index() const {
  std::call_once(index_once_,
                 [this] { index_ = std::make_unique<SpatialIndex>(points_, p_); });
}

const SpatialIndex* EuclideanHostBackend::spatial_index() const {
  return index_.get();
}

void EuclideanHostBackend::candidate_targets(int u, int budget,
                                             std::vector<int>& out) const {
  // Full budget delegates to the base full scan so the restricted-search
  // differential gates compare against a bit-identical candidate order.
  if (budget >= points_.size() - 1) {
    HostBackend::candidate_targets(u, budget, out);
    return;
  }
  ensure_index();
  // Per-thread query scratch (same pattern as tls_dijkstra_buffers): the
  // oracle is const + thread-safe, and steady-state queries allocate
  // nothing once the buffers reach capacity.
  static thread_local SpatialIndex::QueryScratch scratch;
  index_->candidates(u, budget, out, scratch);
}

// --- tree -----------------------------------------------------------------

TreeHostBackend::TreeHostBackend(const WeightedTree& tree)
    : n_(tree.node_count()) {
  const WeightedGraph& g = tree.graph();
  depth_weighted_.assign(static_cast<std::size_t>(n_), 0.0);
  first_visit_.assign(static_cast<std::size_t>(n_), -1);
  euler_.reserve(static_cast<std::size_t>(2 * n_));
  euler_level_.reserve(static_cast<std::size_t>(2 * n_));

  // Iterative Euler-tour DFS from node 0 recording weighted depth, level and
  // DFS order (children order = adjacency order; any order works).
  std::vector<int> parent(static_cast<std::size_t>(n_), -1);
  std::vector<int> level(static_cast<std::size_t>(n_), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n_));
  {
    struct Frame {
      int node;
      std::size_t next_child;
    };
    std::vector<Frame> stack;
    stack.push_back({0, 0});
    first_visit_[0] = 0;
    euler_.push_back(0);
    euler_level_.push_back(0);
    order.push_back(0);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& neighbors = g.neighbors(frame.node);
      if (frame.next_child >= neighbors.size()) {
        stack.pop_back();
        if (!stack.empty()) {
          euler_.push_back(stack.back().node);
          euler_level_.push_back(level[static_cast<std::size_t>(
              stack.back().node)]);
        }
        continue;
      }
      const auto& nb = neighbors[frame.next_child++];
      if (nb.to == parent[static_cast<std::size_t>(frame.node)]) continue;
      parent[static_cast<std::size_t>(nb.to)] = frame.node;
      level[static_cast<std::size_t>(nb.to)] =
          level[static_cast<std::size_t>(frame.node)] + 1;
      depth_weighted_[static_cast<std::size_t>(nb.to)] =
          depth_weighted_[static_cast<std::size_t>(frame.node)] + nb.weight;
      first_visit_[static_cast<std::size_t>(nb.to)] =
          static_cast<int>(euler_.size());
      euler_.push_back(nb.to);
      euler_level_.push_back(level[static_cast<std::size_t>(nb.to)]);
      order.push_back(nb.to);
      stack.push_back({nb.to, 0});
    }
  }
  GNCG_CHECK(static_cast<int>(order.size()) == n_,
             "tree backend DFS did not reach every node");

  // Sparse-table RMQ over the Euler tour (argmin by level).
  const auto m = euler_.size();
  log2_.assign(m + 1, 0);
  for (std::size_t i = 2; i <= m; ++i) log2_[i] = log2_[i / 2] + 1;
  const int levels = log2_[m] + 1;
  sparse_.assign(static_cast<std::size_t>(levels), {});
  sparse_[0].resize(m);
  for (std::size_t i = 0; i < m; ++i) sparse_[0][i] = static_cast<int>(i);
  for (int k = 1; k < levels; ++k) {
    const std::size_t span = std::size_t{1} << k;
    sparse_[static_cast<std::size_t>(k)].resize(m + 1 - span);
    for (std::size_t i = 0; i + span <= m; ++i) {
      const int left = sparse_[static_cast<std::size_t>(k - 1)][i];
      const int right =
          sparse_[static_cast<std::size_t>(k - 1)][i + span / 2];
      sparse_[static_cast<std::size_t>(k)][i] =
          euler_level_[static_cast<std::size_t>(left)] <=
                  euler_level_[static_cast<std::size_t>(right)]
              ? left
              : right;
    }
  }

  // Integer capability: every pairwise distance is a signed combination of
  // weighted depths, so if all edge weights are integers every distance is
  // an exact integer bounded by twice the deepest node.
  bool all_integer = true;
  for (int u = 0; u < n_ && all_integer; ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (!is_certifiable_integer(nb.weight)) {
        all_integer = false;
        break;
      }
    }
  }
  if (all_integer) {
    double max_depth = 0.0;
    for (double d : depth_weighted_) max_depth = std::max(max_depth, d);
    const double bound = std::max(1.0, 2.0 * max_depth);
    int_bound_ = bound <= kMaxCertifiedIntegerWeight ? bound : 0.0;
  }
}

double TreeHostBackend::host_distance_sum(int u) const {
  // One row per call, O(n) LCA queries, summed in increasing v order: the
  // O(n) rerooting identity would give the same values up to association
  // order, but the contract pins the order so the sum stays bitwise equal
  // to adding the host_distance row.
  GNCG_DASSERT(u >= 0 && u < n_);
  double total = 0.0;
  for (int v = 0; v < n_; ++v) total += host_distance(u, v);
  return total;
}

int TreeHostBackend::lca(int u, int v) const {
  GNCG_DASSERT(u >= 0 && u < n_ && v >= 0 && v < n_);
  std::size_t a = static_cast<std::size_t>(first_visit_[static_cast<std::size_t>(u)]);
  std::size_t b = static_cast<std::size_t>(first_visit_[static_cast<std::size_t>(v)]);
  if (a > b) std::swap(a, b);
  const int k = log2_[b - a + 1];
  const std::size_t span = std::size_t{1} << k;
  const int left = sparse_[static_cast<std::size_t>(k)][a];
  const int right = sparse_[static_cast<std::size_t>(k)][b + 1 - span];
  const int best = euler_level_[static_cast<std::size_t>(left)] <=
                           euler_level_[static_cast<std::size_t>(right)]
                       ? left
                       : right;
  return euler_[static_cast<std::size_t>(best)];
}

double TreeHostBackend::host_distance(int u, int v) const {
  if (u == v) return 0.0;
  const int w = lca(u, v);
  return depth_weighted_[static_cast<std::size_t>(u)] +
         depth_weighted_[static_cast<std::size_t>(v)] -
         2.0 * depth_weighted_[static_cast<std::size_t>(w)];
}

// --- factories ------------------------------------------------------------

std::shared_ptr<const HostBackend> make_dense_backend(DistanceMatrix weights) {
  return std::make_shared<DenseHostBackend>(std::move(weights));
}

std::shared_ptr<const HostBackend> make_lazy_closure_backend(
    DistanceMatrix weights) {
  return std::make_shared<LazyClosureHostBackend>(std::move(weights));
}

std::shared_ptr<const HostBackend> make_euclidean_backend(PointSet points,
                                                          double p) {
  return std::make_shared<EuclideanHostBackend>(std::move(points), p);
}

std::shared_ptr<const HostBackend> make_tree_backend(const WeightedTree& tree) {
  return std::make_shared<TreeHostBackend>(tree);
}

}  // namespace gncg
