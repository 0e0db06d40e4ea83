// Tests for IncrementalSssp: decrease-only repair under source-incident
// edge insertions must match a fresh Dijkstra over the augmented graph
// bitwise, and rollback must restore the exact pre-insertion vector.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "graph/weighted_graph.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

using Adjacency = std::vector<std::vector<Neighbor>>;

/// Random sparse undirected graph; with `connect_all` false some nodes stay
/// isolated so kInf -> finite transitions are exercised.
Adjacency random_graph(int n, double edge_prob, Rng& rng, bool connect_all) {
  Adjacency adj(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.uniform01() > edge_prob) continue;
      const double w = rng.uniform_real(0.5, 8.0);
      adj[static_cast<std::size_t>(a)].push_back({b, w});
      adj[static_cast<std::size_t>(b)].push_back({a, w});
    }
  }
  if (connect_all) {
    for (int v = 1; v < n; ++v) {
      const double w = rng.uniform_real(4.0, 16.0);
      adj[static_cast<std::size_t>(v - 1)].push_back({v, w});
      adj[static_cast<std::size_t>(v)].push_back({v - 1, w});
    }
  }
  return adj;
}

/// Fresh Dijkstra over (graph + the given source-incident extra edges).
std::vector<double> fresh_dist(const Adjacency& adj, int source,
                               const std::vector<std::pair<int, double>>&
                                   extra) {
  std::vector<double> dist;
  dijkstra_over(
      static_cast<int>(adj.size()), source,
      [&](int x, auto&& visit) {
        for (const auto& nb : adj[static_cast<std::size_t>(x)])
          visit(nb.to, nb.weight);
        if (x == source) {
          for (const auto& [v, w] : extra) visit(v, w);
        } else {
          for (const auto& [v, w] : extra)
            if (v == x) visit(source, w);
        }
      },
      dist);
  return dist;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const char* where) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < got.size(); ++t)
    EXPECT_EQ(got[t], want[t]) << where << " node " << t;
}

TEST(IncrementalSssp, InsertionMatchesFreshDijkstra) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform_below(24));
    const bool connected = trial % 3 != 0;
    const Adjacency adj = random_graph(n, 0.15, rng, connected);
    const auto env_fn = [&](int x, auto&& visit) {
      for (const auto& nb : adj[static_cast<std::size_t>(x)])
        visit(nb.to, nb.weight);
    };

    IncrementalSssp sssp;
    sssp.reset(fresh_dist(adj, 0, {}));
    std::vector<std::pair<int, double>> inserted;
    for (int step = 0; step < 6; ++step) {
      const int v =
          1 + static_cast<int>(rng.uniform_below(
                  static_cast<std::uint64_t>(n - 1)));
      const double w = rng.uniform_real(0.1, 6.0);
      inserted.emplace_back(v, w);
      sssp.relax_insert(v, w, env_fn);
      expect_bitwise_equal(sssp.dist(), fresh_dist(adj, 0, inserted),
                           "after insert");
    }
  }
}

TEST(IncrementalSssp, RollbackRestoresExactVectors) {
  // DFS-shaped usage: a stack of insertions with checkpoints, unwound in
  // LIFO order; every unwind must restore the snapshot bitwise.
  Rng rng(37);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 10 + static_cast<int>(rng.uniform_below(16));
    const Adjacency adj = random_graph(n, 0.2, rng, trial % 2 == 0);
    const auto env_fn = [&](int x, auto&& visit) {
      for (const auto& nb : adj[static_cast<std::size_t>(x)])
        visit(nb.to, nb.weight);
    };

    IncrementalSssp sssp;
    sssp.reset(fresh_dist(adj, 0, {}));

    std::vector<IncrementalSssp::Checkpoint> marks;
    std::vector<std::vector<double>> snapshots;
    for (int depth = 0; depth < 8; ++depth) {
      marks.push_back(sssp.checkpoint());
      snapshots.push_back(sssp.dist());
      const int v =
          1 + static_cast<int>(rng.uniform_below(
                  static_cast<std::uint64_t>(n - 1)));
      sssp.relax_insert(v, rng.uniform_real(0.1, 4.0), env_fn);
    }
    while (!marks.empty()) {
      sssp.rollback(marks.back());
      expect_bitwise_equal(sssp.dist(), snapshots.back(), "after rollback");
      marks.pop_back();
      snapshots.pop_back();
    }
  }
}

TEST(IncrementalSssp, BoundedSlackZeroIsBitwiseExact) {
  // A policy that never fires (huge node cap) must take
  // exactly the unbounded code path's decisions: same dist vector bitwise,
  // no truncation reported, and still equal to a fresh Dijkstra.
  Rng rng(43);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform_below(24));
    const Adjacency adj = random_graph(n, 0.15, rng, trial % 3 != 0);
    const auto env_fn = [&](int x, auto&& visit) {
      for (const auto& nb : adj[static_cast<std::size_t>(x)])
        visit(nb.to, nb.weight);
    };

    IncrementalSssp bounded, unbounded;
    const std::vector<double> base = fresh_dist(adj, 0, {});
    bounded.reset(base);
    unbounded.reset(base);
    FrontierPolicy slack0;
    slack0.node_cap = static_cast<std::size_t>(n) * 16;

    std::vector<std::pair<int, double>> inserted;
    for (int step = 0; step < 6; ++step) {
      const int v =
          1 + static_cast<int>(rng.uniform_below(
                  static_cast<std::uint64_t>(n - 1)));
      const double w = rng.uniform_real(0.1, 6.0);
      inserted.emplace_back(v, w);
      const RepairOutcome outcome =
          bounded.relax_insert(v, w, slack0, env_fn);
      unbounded.relax_insert(v, w, env_fn);
      EXPECT_FALSE(outcome.truncated);
      expect_bitwise_equal(bounded.dist(), unbounded.dist(),
                           "bounded vs unbounded");
      expect_bitwise_equal(bounded.dist(), fresh_dist(adj, 0, inserted),
                           "bounded vs fresh");
    }
  }
}

TEST(IncrementalSssp, TruncatedEstimatesStayAdmissible) {
  // Bounded-frontier invariant under composition: across a stack of
  // (possibly truncated) repairs, let PF be the minimum frontier_min over
  // every truncated repair still live.  Every maintained label is an upper
  // bound on the true distance, and true(y) >= min(dist(y), PF) for every
  // node y -- exactly the path-frontier rule br_search composes along a DFS
  // path.  Checked under randomized insert/rollback interleavings against
  // fresh Dijkstras over the live insertion set.
  Rng rng(47);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 16 + static_cast<int>(rng.uniform_below(32));
    const Adjacency adj = random_graph(n, 0.2, rng, trial % 2 == 0);
    const auto env_fn = [&](int x, auto&& visit) {
      for (const auto& nb : adj[static_cast<std::size_t>(x)])
        visit(nb.to, nb.weight);
    };

    IncrementalSssp sssp;
    sssp.reset(fresh_dist(adj, 0, {}));

    struct Frame {
      IncrementalSssp::Checkpoint mark;
      std::vector<double> snapshot;
      std::vector<std::pair<int, double>> live;
      double pf;
    };
    std::vector<Frame> stack;
    std::vector<std::pair<int, double>> live;
    double pf = kInf;  // min frontier over live truncated repairs
    for (int step = 0; step < 24; ++step) {
      if (!stack.empty() && rng.uniform_below(3) == 0) {
        sssp.rollback(stack.back().mark);
        expect_bitwise_equal(sssp.dist(), stack.back().snapshot,
                             "after rollback");
        live = stack.back().live;
        pf = stack.back().pf;
        stack.pop_back();
        continue;
      }
      stack.push_back({sssp.checkpoint(), sssp.dist(), live, pf});
      const int v =
          1 + static_cast<int>(rng.uniform_below(
                  static_cast<std::uint64_t>(n - 1)));
      const double w = rng.uniform_real(0.1, 4.0);
      live.emplace_back(v, w);
      FrontierPolicy tight;
      // Tiny caps so truncation actually happens.
      tight.node_cap = 1 + rng.uniform_below(3);
      const RepairOutcome outcome =
          sssp.relax_insert(v, w, tight, env_fn);
      if (outcome.truncated) pf = std::min(pf, outcome.frontier_min);

      const std::vector<double> truth = fresh_dist(adj, 0, live);
      for (std::size_t t = 0; t < truth.size(); ++t) {
        // Upper bound: the maintained label never undershoots the truth.
        EXPECT_GE(sssp.dist()[t], truth[t]) << "label below truth at " << t;
        // Admissible floor: min(dist, PF) never exceeds the truth.
        EXPECT_LE(std::min(sssp.dist()[t], pf), truth[t])
            << "floor above truth at " << t;
      }
      // With no live truncation the maintained vector is exact.
      if (pf == kInf)
        expect_bitwise_equal(sssp.dist(), truth, "untruncated stack");
    }
  }
}

TEST(IncrementalSssp, NonImprovingInsertIsNoOp) {
  Rng rng(41);
  const Adjacency adj = random_graph(12, 0.4, rng, true);
  const auto env_fn = [&](int x, auto&& visit) {
    for (const auto& nb : adj[static_cast<std::size_t>(x)])
      visit(nb.to, nb.weight);
  };
  IncrementalSssp sssp;
  const std::vector<double> base = fresh_dist(adj, 0, {});
  sssp.reset(base);
  const IncrementalSssp::Checkpoint mark = sssp.checkpoint();
  for (int v = 1; v < 12; ++v) sssp.relax_insert(v, base[v] + 1.0, env_fn);
  EXPECT_EQ(sssp.checkpoint(), mark) << "no-op inserts must not log";
  expect_bitwise_equal(sssp.dist(), base, "after no-op inserts");
}

}  // namespace
}  // namespace gncg
