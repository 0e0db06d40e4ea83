// Frozen binary-heap SSSP kernels: the differential baselines the library's
// shared queue (graph/dijkstra.hpp, detail::SsspQueue) is gated against.
//
// These are the kernels as they ran on a std::priority_queue /
// std::push_heap binary heap with the std::greater<> (distance, node)
// order, before every Dijkstra kernel moved onto one 4-ary queue.  Each
// returns the work it did (pops, relaxations) instead of bumping the
// instrumentation counters, so a test can compare the library's counter
// deltas against them at any GNCG_INSTRUMENT setting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace gncg::reference {

using HeapEntry = std::pair<double, int>;
using BinaryMinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

/// Work one frozen kernel run did.
struct SsspWork {
  std::uint64_t pops = 0;         ///< heap pops, stale entries included
  std::uint64_t relaxations = 0;  ///< successful distance decreases
};

/// dijkstra_over as it ran on the binary heap: fills `dist` (and `parent`
/// when non-null) exactly as the library's dijkstra_over does.
template <class NeighborFn>
SsspWork binary_heap_dijkstra_over(int n, int source, NeighborFn&& neighbor_fn,
                                   std::vector<double>& dist,
                                   std::vector<int>* parent = nullptr) {
  SsspWork work;
  dist.assign(static_cast<std::size_t>(n), kInf);
  if (parent != nullptr) parent->assign(static_cast<std::size_t>(n), -1);
  BinaryMinHeap heap;
  dist[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    ++work.pops;
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    neighbor_fn(u, [&](int v, double w) {
      const double candidate = d + w;
      if (candidate < dist[static_cast<std::size_t>(v)]) {
        ++work.relaxations;
        dist[static_cast<std::size_t>(v)] = candidate;
        if (parent != nullptr) (*parent)[static_cast<std::size_t>(v)] = u;
        heap.emplace(candidate, v);
      }
    });
  }
  return work;
}

/// Outcome of one frozen IncrementalSssp::relax_insert.
struct RepairWork {
  std::uint64_t relaxations = 0;  ///< overwrites, the improved seed included
  bool truncated = false;
  double frontier_min = kInf;
};

/// IncrementalSssp::relax_insert as it ran on the std::push_heap binary heap,
/// applied to `dist` in place (no change log).  `node_cap` 0 is the exact
/// repair; otherwise the propagation stops, at pop time, once `node_cap`
/// distances have been overwritten.
template <class NeighborFn>
RepairWork binary_heap_relax_insert(std::vector<double>& dist, int v,
                                    double cand, std::size_t node_cap,
                                    NeighborFn&& neighbor_fn) {
  RepairWork work;
  if (!(cand < dist[static_cast<std::size_t>(v)])) return work;
  std::vector<HeapEntry> heap;
  const auto push = [&](double d, int x) {
    heap.emplace_back(d, x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  work.relaxations = 1;
  std::size_t writes = 1;
  dist[static_cast<std::size_t>(v)] = cand;
  push(cand, v);
  while (!heap.empty()) {
    if (node_cap > 0 && writes >= node_cap) {
      work.truncated = true;
      work.frontier_min = heap[0].first;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, x] = heap.back();
    heap.pop_back();
    if (d > dist[static_cast<std::size_t>(x)]) continue;  // stale entry
    neighbor_fn(x, [&](int y, double w) {
      const double candidate = d + w;
      if (candidate < dist[static_cast<std::size_t>(y)]) {
        ++work.relaxations;
        ++writes;
        dist[static_cast<std::size_t>(y)] = candidate;
        push(candidate, y);
      }
    });
  }
  return work;
}

/// One built-topology edge edit, as the deviation engine logs it.
struct RowEdit {
  int a = -1;
  int b = -1;
  double weight = 0.0;
  bool inserted = false;
};

/// DeviationEngine::repair as it ran on the std::push_heap binary heap:
/// repairs agent u's row `d`, last correct before `edits` (oldest first),
/// into the current graph -- `neighbor_fn` enumerates the current graph's
/// edges in the engine adjacency's order, `has_edge(a, b)` tells whether an
/// edge is built now.  Returns the distance decreases, the counter the
/// engine reports as engine_repair_relaxations.
template <class NeighborFn, class HasEdge>
std::uint64_t binary_heap_row_repair(int u, std::vector<double>& d,
                                     const std::vector<RowEdit>& edits,
                                     NeighborFn&& neighbor_fn,
                                     HasEdge&& has_edge) {
  const auto at = [](int x) { return static_cast<std::size_t>(x); };
  std::vector<char> mark(d.size(), 0);
  std::vector<int> affected;
  const auto mark_if_tight = [&](int x, int y, double w) {
    if (y == u || mark[at(y)] != 0) return;
    if (!(d[at(x)] < kInf && d[at(x)] + w == d[at(y)])) return;
    mark[at(y)] = 1;
    affected.push_back(y);
  };
  for (const RowEdit& e : edits) {
    if (e.inserted) continue;
    mark_if_tight(e.a, e.b, e.weight);
    mark_if_tight(e.b, e.a, e.weight);
  }
  for (std::size_t i = 0; i < affected.size(); ++i) {
    const int x = affected[i];
    neighbor_fn(x, [&](int y, double w) { mark_if_tight(x, y, w); });
  }

  std::uint64_t relaxations = 0;
  std::vector<HeapEntry> heap;
  const auto relax = [&](int y, double cand) {
    if (!(cand < d[at(y)])) return;
    ++relaxations;
    d[at(y)] = cand;
    heap.emplace_back(cand, y);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  for (int x : affected) d[at(x)] = kInf;
  for (int x : affected)
    neighbor_fn(x, [&](int y, double w) {
      if (mark[at(y)] == 0) relax(x, d[at(y)] + w);
    });
  for (const RowEdit& e : edits) {
    if (!e.inserted || !has_edge(e.a, e.b)) continue;
    relax(e.b, d[at(e.a)] + e.weight);
    relax(e.a, d[at(e.b)] + e.weight);
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [dx, x] = heap.back();
    heap.pop_back();
    if (dx > d[at(x)]) continue;  // stale entry
    neighbor_fn(x, [&](int y, double w) { relax(y, dx + w); });
  }
  return relaxations;
}

}  // namespace gncg::reference
