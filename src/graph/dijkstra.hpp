// Dijkstra single-source shortest paths.
//
// Two entry points:
//  * `sssp(graph, source)` for materialized WeightedGraph instances, and
//  * the templated `dijkstra_over(n, source, neighbor_fn, out)` that runs over
//    an *implicit* graph described by a callback.  The game engine uses the
//    implicit form heavily: evaluating a candidate strategy S_u means running
//    Dijkstra over "everyone else's edges plus u's candidate edges" without
//    materializing that graph (the exact best-response search does this tens
//    of thousands of times per agent).
//
// Weights are non-negative doubles (zero allowed); unreachable nodes get kInf.
//
// Every heap-driven kernel of the library -- dijkstra_over, DijkstraBuffers,
// IncrementalSssp's repairs, the deviation engine's row repair and the
// edge-betweenness sweep -- runs on the one queue below, detail::SsspQueue.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/weighted_graph.hpp"
#include "support/instrument.hpp"

namespace gncg {

/// Result of a single-source run: distances (kInf if unreachable) and the
/// predecessor of each node on some shortest path (-1 for source/unreached).
struct SsspResult {
  std::vector<double> dist;
  std::vector<int> parent;
};

namespace detail {

/// Buffer-shrink policy for reusable workspaces: a vector whose capacity
/// exceeds kShrinkFactor times the current need (with a floor below which
/// nobody cares) is released and re-reserved tight.  Keeps a workspace that
/// once served a big-n engine from pinning that memory -- and from handing
/// later small-n callers a huge capacity -- forever.
inline constexpr std::size_t kShrinkFactor = 4;
inline constexpr std::size_t kShrinkFloor = 256;

// Shrinks taken (release_excess firing, dial ring-array downsizing) are
// counted per-worker through instrument::Counter::kArenaShrinkEvents --
// no process-wide atomic on the reuse path.  arena_stats() reports the
// cross-worker sum (zero in GNCG_INSTRUMENT=OFF builds).

template <class T>
void release_excess(std::vector<T>& v, std::size_t needed) {
  if (v.capacity() > kShrinkFactor * std::max(needed, kShrinkFloor)) {
    std::vector<T>().swap(v);
    v.reserve(needed);
    GNCG_COUNT(kArenaShrinkEvents);
  }
}

/// Queue entry: (distance, node).
using HeapEntry = std::pair<double, int>;

/// The single-source shortest-path queue: a 4-ary min-heap over (distance,
/// node) pairs, popping in the lexicographic order of std::greater<HeapEntry>
/// (distance first, then node id).
///
/// Order contract.  Every kernel pushes a node only when its distance
/// strictly decreases, so the queue never holds two equal (distance, node)
/// pairs -- and a total order over distinct keys leaves any correct priority
/// queue exactly one pop sequence.  This queue therefore pops what the
/// binary heaps it replaced popped, entry for entry: floating-point
/// relaxation order, distances, parents and every pop/relaxation counter
/// are unchanged (tests/test_sssp_queue.cpp is the gate, against a frozen
/// binary-heap Dijkstra in tests/reference/).
///
/// Keys.  A non-negative double's bit pattern orders like the double, so
/// each entry is one 128-bit integer, distance bits above the node id, and
/// every compare is a single branch-free integer compare.  Distances must
/// be >= 0 (NaN excluded); -0.0 is stored as +0.0 (they compare equal, so
/// the order is unchanged, and a popped zero is +0.0).
///
/// Capacity: push() tracks the run's high-water mark, and recycle() applies
/// the workspaces' shrink policy to it (see release_excess).
class SsspQueue {
 public:
  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  std::size_t capacity() const { return keys_.capacity(); }
  std::size_t footprint_bytes() const { return keys_.capacity() * sizeof(Key); }

  void clear() { keys_.clear(); }

  /// Clears the queue for a new run.  The need estimate decays: it is the
  /// previous run's peak, floored at half the prior estimate, so workloads
  /// that alternate run sizes keep their capacity instead of
  /// shrink-then-regrowing, while a genuine downshift still releases within
  /// a logarithmic number of runs.
  void recycle() {
    need_ = std::max(peak_, need_ / 2);
    release_excess(keys_, need_);
    peak_ = 0;
    keys_.clear();
  }

  void push(double d, int v) {
    GNCG_DASSERT(d >= 0.0 && v >= 0);
    const Key key = pack(d, v);
    std::size_t i = keys_.size();
    keys_.push_back(key);
    if (keys_.size() > peak_) peak_ = keys_.size();
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(key < keys_[parent])) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = key;
  }

  /// The minimum entry.  Requires a non-empty queue.
  HeapEntry top() const { return unpack(keys_.front()); }

  /// Removes and returns the minimum entry.  Requires a non-empty queue.
  HeapEntry pop() {
    const Key min = keys_.front();
    const Key last = keys_.back();
    keys_.pop_back();
    const std::size_t n = keys_.size();
    if (n > 0) {
      // Move the hole at the root down along minimum children until `last`
      // fits.
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n) break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        Key best_key = keys_[first];
        for (std::size_t c = first + 1; c < end; ++c) {
          const Key k = keys_[c];
          if (k < best_key) {
            best_key = k;
            best = c;
          }
        }
        if (!(best_key < last)) break;
        keys_[i] = best_key;
        i = best;
      }
      keys_[i] = last;
    }
    return unpack(min);
  }

 private:
  using Key = unsigned __int128;
  static constexpr std::size_t kArity = 4;

  static Key pack(double d, int v) {
    // d + 0.0 turns -0.0 into +0.0 and leaves every other value unchanged.
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(d + 0.0)) << 64) |
           static_cast<std::uint32_t>(v);
  }
  static HeapEntry unpack(Key key) {
    return {std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64)),
            static_cast<int>(static_cast<std::uint32_t>(key))};
  }

  std::vector<Key> keys_;
  std::size_t peak_ = 0;  ///< high-water mark since the last recycle()
  std::size_t need_ = 0;  ///< decaying need estimate (shrink policy)
};

}  // namespace detail

/// Dijkstra over an implicit graph.  `neighbor_fn(u, visit)` must invoke
/// `visit(v, w)` for every edge (u, v) of weight w incident to u.  Fills
/// `dist` (resized to n, kInf-initialized).  If `parent` is non-null it is
/// filled with shortest-path-tree predecessors.
template <class NeighborFn>
void dijkstra_over(int n, int source, NeighborFn&& neighbor_fn,
                   std::vector<double>& dist,
                   std::vector<int>* parent = nullptr) {
  GNCG_CHECK(source >= 0 && source < n, "source out of range");
  GNCG_COUNT(kSsspHeapRuns);
  // Counter discipline for hot kernels: accumulate into stack locals, flush
  // to the thread-local block once per run (the locals vanish under OFF).
  GNCG_IF_INSTRUMENT(std::uint64_t pops = 0; std::uint64_t relaxations = 0;)
  dist.assign(static_cast<std::size_t>(n), kInf);
  if (parent != nullptr) parent->assign(static_cast<std::size_t>(n), -1);
  detail::SsspQueue queue;
  dist[static_cast<std::size_t>(source)] = 0.0;
  queue.push(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.pop();
    GNCG_IF_INSTRUMENT(++pops;)
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    neighbor_fn(u, [&](int v, double w) {
      GNCG_DASSERT(w >= 0.0);
      const double candidate = d + w;
      if (candidate < dist[static_cast<std::size_t>(v)]) {
        GNCG_IF_INSTRUMENT(++relaxations;)
        dist[static_cast<std::size_t>(v)] = candidate;
        if (parent != nullptr) (*parent)[static_cast<std::size_t>(v)] = u;
        queue.push(candidate, v);
      }
    });
  }
  GNCG_COUNT_N(kSsspHeapPops, pops);
  GNCG_COUNT_N(kSsspHeapRelaxations, relaxations);
}

/// Reusable Dijkstra workspace: the distance vector and the queue's backing
/// store survive across runs, so hot paths (single-move scans, best-response
/// candidate evaluation, the deviation engine's cache refills) do not pay a
/// queue/vector allocation per call.  Not thread-safe; use the per-thread
/// instance from tls_dijkstra_buffers() inside parallel regions.
///
/// Same queue, same (distance, node) pop order as dijkstra_over, so the
/// floating-point relaxation order -- and every distance bit and counter --
/// is identical to it.
class DijkstraBuffers {
 public:
  /// Runs Dijkstra from `source` over the implicit graph `neighbor_fn`,
  /// filling `dist` (external storage, e.g. a cache vector owned by the
  /// caller).  `dist` is resized to n and kInf-initialized.
  template <class NeighborFn>
  void run_into(std::vector<double>& dist, int n, int source,
                NeighborFn&& neighbor_fn) {
    GNCG_CHECK(source >= 0 && source < n, "source out of range");
    GNCG_COUNT(kSsspHeapRuns);
    GNCG_IF_INSTRUMENT(std::uint64_t pops = 0; std::uint64_t relaxations = 0;)
    // Shrink before reuse: dist needs exactly n slots, the queue a decaying
    // peak estimate (SsspQueue::recycle).
    detail::release_excess(dist, static_cast<std::size_t>(n));
    queue_.recycle();
    dist.assign(static_cast<std::size_t>(n), kInf);
    dist[static_cast<std::size_t>(source)] = 0.0;
    queue_.push(0.0, source);
    while (!queue_.empty()) {
      const auto [d, u] = queue_.pop();
      GNCG_IF_INSTRUMENT(++pops;)
      if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
      neighbor_fn(u, [&](int v, double w) {
        GNCG_DASSERT(w >= 0.0);
        const double candidate = d + w;
        if (candidate < dist[static_cast<std::size_t>(v)]) {
          GNCG_IF_INSTRUMENT(++relaxations;)
          dist[static_cast<std::size_t>(v)] = candidate;
          queue_.push(candidate, v);
        }
      });
    }
    GNCG_COUNT_N(kSsspHeapPops, pops);
    GNCG_COUNT_N(kSsspHeapRelaxations, relaxations);
  }

  /// Runs Dijkstra into the internally owned distance vector and returns it.
  /// The reference stays valid until the next run on this workspace -- do
  /// not hold it across another run (in particular, not across a nested use
  /// of the same thread-local instance).
  template <class NeighborFn>
  const std::vector<double>& run(int n, int source, NeighborFn&& neighbor_fn) {
    run_into(dist_, n, source, std::forward<NeighborFn>(neighbor_fn));
    return dist_;
  }

  // Capacity observers for the shrink-policy regression tests.
  std::size_t dist_capacity() const { return dist_.capacity(); }
  std::size_t heap_capacity() const { return queue_.capacity(); }
  std::size_t footprint_bytes() const {
    return dist_.capacity() * sizeof(double) + queue_.footprint_bytes();
  }

 private:
  std::vector<double> dist_;
  detail::SsspQueue queue_;
};

/// Bucket-queue ("dial") Dijkstra workspace for hosts whose finite weights
/// are all non-negative integers bounded by C.  Distances are then integers,
/// and a circular array of C+1 rings replaces the heap queue: pushes and
/// pops are O(1) instead of O(log m), and the sweep touches rings in strictly
/// increasing distance order.
///
/// Bit-identical to the heap path: every reachable distance is an exact
/// integer below 2^53, so both kernels converge to the same least fixpoint
/// d(t) = min over edges (x,t) of d(x) + w with *no* rounding anywhere --
/// the doubles compare equal bit-for-bit (tests/test_dial_dijkstra.cpp is
/// the gate).  Zero-weight edges are supported: a relaxation at the current
/// sweep distance appends to the ring being drained and is processed in the
/// same sweep.
///
/// Not thread-safe; lives in the per-worker ScratchArena.
class DialBuffers {
 public:
  /// Runs Dijkstra from `source` over the implicit graph `neighbor_fn`,
  /// filling `dist` (resized to n, kInf-initialized).  `max_weight` must
  /// bound every weight the enumeration produces; all weights must be
  /// non-negative integers.
  template <class NeighborFn>
  void run_into(std::vector<double>& dist, int n, int source, int max_weight,
                NeighborFn&& neighbor_fn) {
    GNCG_CHECK(source >= 0 && source < n, "source out of range");
    GNCG_CHECK(max_weight >= 0, "dial weight bound must be non-negative");
    GNCG_COUNT(kSsspDialRuns);
    GNCG_IF_INSTRUMENT(std::uint64_t pops = 0; std::uint64_t relaxations = 0;
                       std::uint64_t ring_scans = 0;)
    detail::release_excess(dist, static_cast<std::size_t>(n));
    dist.assign(static_cast<std::size_t>(n), kInf);
    const std::size_t rings = static_cast<std::size_t>(max_weight) + 1;
    if (buckets_.size() < rings) {
      buckets_.resize(rings);
    } else if (buckets_.size() > detail::kShrinkFactor * rings &&
               buckets_.size() > 64) {
      buckets_.resize(rings);
      buckets_.shrink_to_fit();
      GNCG_COUNT(kArenaShrinkEvents);
    }
    dist[static_cast<std::size_t>(source)] = 0.0;
    buckets_[0].push_back(source);
    // Every queued entry has a value in the window [d, d + max_weight], so
    // the modulo mapping onto the rings is injective over the live window
    // and each entry is drained within max_weight + 1 sweeps.
    std::size_t pending = 1;
    for (long long d = 0; pending > 0; ++d) {
      auto& ring = buckets_[static_cast<std::size_t>(d) % rings];
      const double sweep = static_cast<double>(d);
      GNCG_IF_INSTRUMENT(++ring_scans;)
      // The ring may grow mid-drain (zero-weight relaxations land here and
      // are processed in this same sweep), so re-check size() each step.
      for (std::size_t i = 0; i < ring.size(); ++i) {
        const int x = ring[i];
        if (dist[static_cast<std::size_t>(x)] != sweep) continue;  // stale
        neighbor_fn(x, [&](int y, double w) {
          GNCG_DASSERT(w >= 0.0 && w <= static_cast<double>(max_weight));
          GNCG_DASSERT(w == static_cast<double>(static_cast<long long>(w)));
          const double candidate = sweep + w;
          const std::size_t yi = static_cast<std::size_t>(y);
          if (candidate < dist[yi]) {
            GNCG_IF_INSTRUMENT(++relaxations;)
            dist[yi] = candidate;
            buckets_[static_cast<std::size_t>(d + static_cast<long long>(w)) %
                     rings]
                .push_back(y);
            ++pending;
          }
        });
      }
      GNCG_IF_INSTRUMENT(pops += ring.size();)
      pending -= ring.size();
      ring.clear();  // keeps ring capacity: zero steady-state allocation
    }
    GNCG_COUNT_N(kSsspDialPops, pops);
    GNCG_COUNT_N(kSsspDialRelaxations, relaxations);
    GNCG_COUNT_N(kSsspDialRingScans, ring_scans);
  }

  /// Runs into the internally owned distance vector; same aliasing caveats
  /// as DijkstraBuffers::run.
  template <class NeighborFn>
  const std::vector<double>& run(int n, int source, int max_weight,
                                 NeighborFn&& neighbor_fn) {
    run_into(dist_, n, source, max_weight,
             std::forward<NeighborFn>(neighbor_fn));
    return dist_;
  }

  std::size_t ring_count() const { return buckets_.size(); }
  std::size_t footprint_bytes() const {
    std::size_t total = dist_.capacity() * sizeof(double) +
                        buckets_.capacity() * sizeof(std::vector<int>);
    for (const auto& ring : buckets_) total += ring.capacity() * sizeof(int);
    return total;
  }

 private:
  std::vector<double> dist_;
  std::vector<std::vector<int>> buckets_;
};

/// Per-thread Dijkstra workspace for hot paths.
inline DijkstraBuffers& tls_dijkstra_buffers() {
  static thread_local DijkstraBuffers buffers;
  return buffers;
}

/// Sum of distances from `source` over an implicit graph, computed with the
/// thread-local workspace (no per-call allocation).  kInf-propagating: any
/// unreachable node makes the sum kInf.
template <class NeighborFn>
double distance_sum_over(int n, int source, NeighborFn&& neighbor_fn) {
  const auto& dist = tls_dijkstra_buffers().run(
      n, source, std::forward<NeighborFn>(neighbor_fn));
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

/// Single-source shortest paths on a materialized graph.
inline SsspResult sssp(const WeightedGraph& g, int source) {
  SsspResult result;
  dijkstra_over(
      g.node_count(), source,
      [&](int u, auto&& visit) {
        for (const auto& nb : g.neighbors(u)) visit(nb.to, nb.weight);
      },
      result.dist, &result.parent);
  return result;
}

/// Sum of distances from `source` to all nodes (the paper's distance cost
/// d_G(u, V)); kInf when the graph is disconnected from `source`.
inline double distance_sum(const WeightedGraph& g, int source) {
  return distance_sum_over(g.node_count(), source, [&](int u, auto&& visit) {
    for (const auto& nb : g.neighbors(u)) visit(nb.to, nb.weight);
  });
}

}  // namespace gncg
