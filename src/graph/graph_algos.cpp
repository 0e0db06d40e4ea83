#include "graph/graph_algos.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <stack>

#include "graph/dijkstra.hpp"

namespace gncg {

namespace {

/// Iterative DFS marking reachable nodes from node 0.
int count_reachable_from(const WeightedGraph& g, int start,
                         std::vector<char>& visited) {
  std::stack<int> stack;
  stack.push(start);
  visited[static_cast<std::size_t>(start)] = 1;
  int count = 0;
  while (!stack.empty()) {
    const int u = stack.top();
    stack.pop();
    ++count;
    for (const auto& nb : g.neighbors(u)) {
      if (!visited[static_cast<std::size_t>(nb.to)]) {
        visited[static_cast<std::size_t>(nb.to)] = 1;
        stack.push(nb.to);
      }
    }
  }
  return count;
}

}  // namespace

bool is_connected(const WeightedGraph& g) {
  const int n = g.node_count();
  if (n <= 1) return true;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  return count_reachable_from(g, 0, visited) == n;
}

int component_count(const WeightedGraph& g) {
  const int n = g.node_count();
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  int components = 0;
  for (int v = 0; v < n; ++v) {
    if (!visited[static_cast<std::size_t>(v)]) {
      ++components;
      count_reachable_from(g, v, visited);
    }
  }
  return components;
}

bool is_tree(const WeightedGraph& g) {
  const int n = g.node_count();
  if (n == 0) return false;
  return g.edge_count() == n - 1 && is_connected(g);
}

std::vector<double> eccentricities(const WeightedGraph& g) {
  const int n = g.node_count();
  std::vector<double> ecc(static_cast<std::size_t>(n), 0.0);
  for (int u = 0; u < n; ++u) {
    const auto result = sssp(g, u);
    double worst = 0.0;
    for (double d : result.dist) worst = std::max(worst, d);
    ecc[static_cast<std::size_t>(u)] = worst;
  }
  return ecc;
}

double diameter(const WeightedGraph& g) {
  double worst = 0.0;
  for (double e : eccentricities(g)) worst = std::max(worst, e);
  return worst;
}

int hop_diameter(const WeightedGraph& g) {
  const int n = g.node_count();
  int worst = 0;
  std::vector<int> depth(static_cast<std::size_t>(n));
  for (int src = 0; src < n; ++src) {
    std::fill(depth.begin(), depth.end(), -1);
    std::queue<int> queue;
    queue.push(src);
    depth[static_cast<std::size_t>(src)] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop();
      worst = std::max(worst, depth[static_cast<std::size_t>(u)]);
      for (const auto& nb : g.neighbors(u)) {
        if (depth[static_cast<std::size_t>(nb.to)] < 0) {
          depth[static_cast<std::size_t>(nb.to)] =
              depth[static_cast<std::size_t>(u)] + 1;
          queue.push(nb.to);
        }
      }
    }
    for (int v = 0; v < n; ++v)
      if (depth[static_cast<std::size_t>(v)] < 0) return -1;  // disconnected
  }
  return worst;
}

std::vector<Edge> bridges(const WeightedGraph& g) {
  const int n = g.node_count();
  std::vector<int> disc(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<Edge> result;
  int timer = 0;

  // Iterative Tarjan bridge-finding: each frame tracks the parent node so the
  // tree edge back to the parent is skipped exactly once (parallel-edge-free
  // graphs make the single-skip variant unnecessary, but we keep it robust).
  struct Frame {
    int node;
    int parent;
    std::size_t next_index;
  };
  for (int root = 0; root < n; ++root) {
    if (disc[static_cast<std::size_t>(root)] != -1) continue;
    std::stack<Frame> stack;
    stack.push({root, -1, 0});
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] =
        timer++;
    while (!stack.empty()) {
      Frame& frame = stack.top();
      const auto nbs = g.neighbors(frame.node);
      if (frame.next_index < nbs.size()) {
        const int to = nbs[frame.next_index].to;
        ++frame.next_index;
        if (to == frame.parent) continue;
        if (disc[static_cast<std::size_t>(to)] == -1) {
          disc[static_cast<std::size_t>(to)] =
              low[static_cast<std::size_t>(to)] = timer++;
          stack.push({to, frame.node, 0});
        } else {
          low[static_cast<std::size_t>(frame.node)] =
              std::min(low[static_cast<std::size_t>(frame.node)],
                       disc[static_cast<std::size_t>(to)]);
        }
      } else {
        const int child = frame.node;
        const int parent = frame.parent;
        stack.pop();
        if (parent >= 0) {
          low[static_cast<std::size_t>(parent)] =
              std::min(low[static_cast<std::size_t>(parent)],
                       low[static_cast<std::size_t>(child)]);
          if (low[static_cast<std::size_t>(child)] >
              disc[static_cast<std::size_t>(parent)]) {
            result.push_back({std::min(parent, child), std::max(parent, child),
                              g.edge_weight(parent, child)});
          }
        }
      }
    }
  }
  std::sort(result.begin(), result.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return result;
}

std::vector<double> edge_betweenness(const WeightedGraph& g) {
  const int n = g.node_count();
  const auto edge_list = g.edges();
  std::map<std::pair<int, int>, std::size_t> edge_index;
  for (std::size_t i = 0; i < edge_list.size(); ++i)
    edge_index[{edge_list[i].u, edge_list[i].v}] = i;
  std::vector<double> centrality(edge_list.size(), 0.0);

  constexpr double kTieEps = 1e-12;
  for (int src = 0; src < n; ++src) {
    // Dijkstra with path counting.
    std::vector<double> dist(static_cast<std::size_t>(n), kInf);
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<std::vector<int>> preds(static_cast<std::size_t>(n));
    std::vector<int> order;  // nodes in non-decreasing settled distance
    detail::SsspQueue queue;
    dist[static_cast<std::size_t>(src)] = 0.0;
    sigma[static_cast<std::size_t>(src)] = 1.0;
    queue.push(0.0, src);
    std::vector<char> settled(static_cast<std::size_t>(n), 0);
    while (!queue.empty()) {
      const auto [d, u] = queue.pop();
      if (settled[static_cast<std::size_t>(u)]) continue;
      settled[static_cast<std::size_t>(u)] = 1;
      order.push_back(u);
      for (const auto& nb : g.neighbors(u)) {
        const double nd = d + nb.weight;
        auto& dv = dist[static_cast<std::size_t>(nb.to)];
        if (nd < dv - kTieEps) {
          dv = nd;
          sigma[static_cast<std::size_t>(nb.to)] =
              sigma[static_cast<std::size_t>(u)];
          preds[static_cast<std::size_t>(nb.to)].assign(1, u);
          queue.push(nd, nb.to);
        } else if (nd <= dv + kTieEps && !settled[static_cast<std::size_t>(nb.to)]) {
          sigma[static_cast<std::size_t>(nb.to)] +=
              sigma[static_cast<std::size_t>(u)];
          preds[static_cast<std::size_t>(nb.to)].push_back(u);
        }
      }
    }
    // Brandes back-propagation of pair dependencies onto edges.
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int w = *it;
      for (int v : preds[static_cast<std::size_t>(w)]) {
        const double share =
            sigma[static_cast<std::size_t>(v)] /
            sigma[static_cast<std::size_t>(w)] *
            (1.0 + delta[static_cast<std::size_t>(w)]);
        const auto key = std::make_pair(std::min(v, w), std::max(v, w));
        centrality[edge_index.at(key)] += share;
        delta[static_cast<std::size_t>(v)] += share;
      }
    }
  }
  return centrality;
}

}  // namespace gncg
