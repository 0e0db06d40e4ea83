// Gates for the one SSSP queue every Dijkstra kernel runs on
// (graph/dijkstra.hpp, detail::SsspQueue).
//
// The SsspQueue suite checks the order contract directly: over random
// push/pop streams -- many equal distances on distinct ids, zero keys,
// duplicate entries, and the decrease-only pattern the kernels produce --
// the queue pops exactly the sequence a binary-heap std::priority_queue
// ordered by std::greater<HeapEntry> pops.
//
// The SsspQueueOracle suite checks the kernels end to end against the
// frozen binary-heap kernels in tests/reference/binary_heap_sssp.hpp: on
// 1-2 hosts (integer weights, so distance ties everywhere) and euclidean
// hosts at n = 64 and 512, dijkstra_over, DijkstraBuffers::run_into,
// IncrementalSssp::relax_insert (exact and capped) and the deviation
// engine's refill and row repair must give bitwise-equal rows and parents
// and do exactly the oracle's pops and relaxations.  A queue that pops
// ties in any other order (insertion order, say) fails the 1-2 cases.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deviation_engine.hpp"
#include "core/game.hpp"
#include "core/profile_gen.hpp"
#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "reference/binary_heap_sssp.hpp"
#include "support/instrument.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

using instrument::Counter;
using BinaryMinHeap = reference::BinaryMinHeap;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t slot(const instrument::CounterArray& counters, Counter c) {
  return counters[static_cast<std::size_t>(c)];
}

/// Pops both queues once and expects the same entry (zeros compared by
/// value: the queue stores -0.0 as +0.0).
void expect_same_pop(detail::SsspQueue& queue, BinaryMinHeap& oracle) {
  ASSERT_FALSE(queue.empty());
  ASSERT_EQ(queue.size(), oracle.size());
  const detail::HeapEntry want = oracle.top();
  oracle.pop();
  const detail::HeapEntry top = queue.top();
  const detail::HeapEntry got = queue.pop();
  EXPECT_EQ(top, got);
  ASSERT_EQ(got.second, want.second);
  ASSERT_EQ(got.first, want.first);
  if (want.first != 0.0) ASSERT_EQ(bits(got.first), bits(want.first));
}

TEST(SsspQueue, PopsLikeBinaryHeapOnRandomStreams) {
  Rng rng(2501);
  detail::SsspQueue queue;
  for (int stream = 0; stream < 400; ++stream) {
    SCOPED_TRACE(::testing::Message() << "stream " << stream);
    queue.clear();
    BinaryMinHeap oracle;
    // Few distinct distances (including 0.0 and -0.0) make ties the common
    // case; some streams draw from a continuum instead.
    const int distinct = stream % 4 == 3 ? 0 : 1 + stream % 7;
    const int ids = 1 + static_cast<int>(rng.uniform_below(200));
    const int ops = 1 + static_cast<int>(rng.uniform_below(600));
    for (int op = 0; op < ops; ++op) {
      if (!oracle.empty() && rng.bernoulli(0.4)) {
        expect_same_pop(queue, oracle);
        if (HasFatalFailure()) return;
        continue;
      }
      double d = distinct == 0
                     ? rng.uniform_real(0.0, 1e3)
                     : static_cast<double>(rng.uniform_below(distinct));
      if (d == 0.0 && rng.bernoulli(0.5)) d = -0.0;
      const int v = static_cast<int>(rng.uniform_below(ids));
      queue.push(d, v);
      oracle.emplace(d, v);
    }
    while (!oracle.empty()) {
      expect_same_pop(queue, oracle);
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(SsspQueue, PopsLikeBinaryHeapOnDecreaseOnlyStreams) {
  // The kernels' pattern: a node is pushed only when its tentative distance
  // strictly drops, pops are mostly interleaved with pushes, and stale
  // entries stay queued.  Integer steps keep many distances equal.
  Rng rng(2503);
  detail::SsspQueue queue;
  for (int stream = 0; stream < 200; ++stream) {
    SCOPED_TRACE(::testing::Message() << "stream " << stream);
    const int n = 2 + static_cast<int>(rng.uniform_below(300));
    std::vector<double> dist(static_cast<std::size_t>(n), kInf);
    queue.clear();
    BinaryMinHeap oracle;
    const auto offer = [&](int v, double d) {
      if (!(d < dist[static_cast<std::size_t>(v)])) return;
      dist[static_cast<std::size_t>(v)] = d;
      queue.push(d, v);
      oracle.emplace(d, v);
    };
    offer(0, 0.0);
    while (!oracle.empty()) {
      const double d = oracle.top().first;
      expect_same_pop(queue, oracle);
      if (HasFatalFailure()) return;
      const int fanout = static_cast<int>(rng.uniform_below(6));
      for (int k = 0; k < fanout; ++k)
        offer(static_cast<int>(rng.uniform_below(n)),
              d + static_cast<double>(rng.uniform_below(3)));
    }
    EXPECT_TRUE(queue.empty());
  }
}

// --- kernels against the frozen binary-heap oracle --------------------------

struct OracleCase {
  const char* host;
  int n;
};

/// A 1-2 host (integer weights: distances tie constantly) or a euclidean
/// host (real weights) of n nodes.
Game oracle_game(const OracleCase& c, Rng& rng) {
  if (std::string(c.host) == "onetwo")
    return Game(random_one_two_host(c.n, 0.5, rng), 1.0);
  return Game(HostGraph::from_points(uniform_points(c.n, 2, 100.0, rng), 2.0),
              1.0);
}

/// Recursive-tree network plus about n random extra edges, so rows have
/// both tree paths and shortcut ties.
DeviationEngine oracle_engine(const Game& game, Rng& rng) {
  DeviationEngine engine(game, recursive_tree_profile(game, rng));
  const int n = game.node_count();
  for (int k = 0; k < n; ++k) {
    const int a = static_cast<int>(rng.uniform_below(n));
    const int b = static_cast<int>(rng.uniform_below(n));
    if (a != b && !engine.profile().has_edge(a, b)) engine.add_buy(a, b);
  }
  return engine;
}

std::vector<OracleCase> oracle_cases() {
  return {{"onetwo", 64}, {"onetwo", 512}, {"euclidean", 64},
          {"euclidean", 512}};
}

/// Sources of a case: every node at n = 64, a stride sample at n = 512.
std::vector<int> oracle_sources(int n) {
  std::vector<int> sources;
  const int stride = n <= 64 ? 1 : 16;
  for (int s = 0; s < n; s += stride) sources.push_back(s);
  return sources;
}

void expect_rows_bitwise(const std::vector<double>& got,
                         const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < got.size(); ++t)
    ASSERT_EQ(bits(got[t]), bits(want[t]))
        << "target " << t << ": " << got[t] << " vs " << want[t];
}

TEST(SsspQueueOracle, DijkstraKernelsMatchBinaryHeap) {
  Rng rng(2507);
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(::testing::Message() << c.host << " n=" << c.n);
    const Game game = oracle_game(c, rng);
    const DeviationEngine engine = oracle_engine(game, rng);
    const auto graph = [&](int x, auto&& visit) {
      for (const auto& nb : engine.adjacency().neighbors(x))
        visit(nb.to, nb.weight);
    };
    DijkstraBuffers buffers;
    std::uint64_t total_pops = 0;
    for (int s : oracle_sources(c.n)) {
      SCOPED_TRACE(::testing::Message() << "source " << s);
      std::vector<double> want;
      std::vector<int> want_parent;
      const reference::SsspWork work = reference::binary_heap_dijkstra_over(
          c.n, s, graph, want, &want_parent);
      total_pops += work.pops;

      std::vector<double> got;
      std::vector<int> got_parent;
      const instrument::ThreadFrame over_frame;
      dijkstra_over(c.n, s, graph, got, &got_parent);
      const instrument::CounterArray over = over_frame.delta();
      expect_rows_bitwise(got, want);
      ASSERT_EQ(got_parent, want_parent);

      const instrument::ThreadFrame run_frame;
      buffers.run_into(got, c.n, s, graph);
      const instrument::CounterArray run = run_frame.delta();
      expect_rows_bitwise(got, want);

      if (instrument::compiled_in()) {
        for (const auto& delta : {over, run}) {
          EXPECT_EQ(slot(delta, Counter::kSsspHeapRuns), 1u);
          EXPECT_EQ(slot(delta, Counter::kSsspHeapPops), work.pops);
          EXPECT_EQ(slot(delta, Counter::kSsspHeapRelaxations),
                    work.relaxations);
        }
      }
    }
    EXPECT_GT(total_pops, 0u);
  }
}

TEST(SsspQueueOracle, IncrementalRepairsMatchBinaryHeap) {
  Rng rng(2509);
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(::testing::Message() << c.host << " n=" << c.n);
    const Game game = oracle_game(c, rng);
    const DeviationEngine engine = oracle_engine(game, rng);
    const auto graph = [&](int x, auto&& visit) {
      for (const auto& nb : engine.adjacency().neighbors(x))
        visit(nb.to, nb.weight);
    };
    IncrementalSssp sssp;
    std::uint64_t truncations = 0;
    for (int s : oracle_sources(c.n)) {
      std::vector<double> base;
      reference::binary_heap_dijkstra_over(c.n, s, graph, base);
      // Insert edges (s, x) for random x, exact and capped, one at a time
      // and stacked, against the frozen repair on a copy of the vector.
      for (const std::size_t cap : {std::size_t{0}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "source " << s << " cap " << cap);
        sssp.reset(base);
        std::vector<double> want = base;
        for (int k = 0; k < 4; ++k) {
          const int x = static_cast<int>(rng.uniform_below(c.n));
          if (x == s) continue;
          const double w = game.weight(s, x);
          const reference::RepairWork work =
              reference::binary_heap_relax_insert(want, x, w, cap, graph);
          const instrument::ThreadFrame frame;
          const RepairOutcome outcome =
              sssp.relax_insert(x, w, FrontierPolicy{cap}, graph);
          const instrument::CounterArray delta = frame.delta();
          ASSERT_EQ(outcome.truncated, work.truncated);
          ASSERT_EQ(bits(outcome.frontier_min), bits(work.frontier_min));
          expect_rows_bitwise(sssp.dist(), want);
          if (instrument::compiled_in())
            EXPECT_EQ(slot(delta, Counter::kSsspRepairRelaxations),
                      work.relaxations);
          if (work.truncated) ++truncations;
          if (HasFatalFailure()) return;
        }
      }
    }
    EXPECT_GT(truncations, 0u);
  }
}

TEST(SsspQueueOracle, EngineRefillsAndRepairsMatchBinaryHeap) {
  Rng rng(2511);
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(::testing::Message() << c.host << " n=" << c.n);
    const Game game = oracle_game(c, rng);
    DeviationEngine engine = oracle_engine(game, rng);
    const auto graph = [&](int x, auto&& visit) {
      for (const auto& nb : engine.adjacency().neighbors(x))
        visit(nb.to, nb.weight);
    };
    const auto has_edge = [&](int a, int b) {
      return engine.profile().has_edge(a, b);
    };
    // Rows as last served, and the edit-log position each was served at.
    const std::vector<int> agents = oracle_sources(c.n);
    std::vector<std::vector<double>> rows(agents.size());
    std::vector<std::size_t> served_at(agents.size(), 0);
    std::vector<reference::RowEdit> edits;

    // Refills: 1-2 hosts refill through the bucket queue (no heap work),
    // euclidean ones through DijkstraBuffers.
    const bool heap_refills = game.host().dial_weight_bound() <= 0;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "refill " << agents[i]);
      std::vector<double> want;
      const reference::SsspWork work =
          reference::binary_heap_dijkstra_over(c.n, agents[i], graph, want);
      const instrument::ThreadFrame frame;
      rows[i] = engine.distances(agents[i]);
      const instrument::CounterArray delta = frame.delta();
      expect_rows_bitwise(rows[i], want);
      if (instrument::compiled_in()) {
        EXPECT_EQ(slot(delta, Counter::kEngineCacheMisses), 1u);
        EXPECT_EQ(slot(delta, Counter::kSsspHeapPops),
                  heap_refills ? work.pops : 0u);
        EXPECT_EQ(slot(delta, Counter::kSsspHeapRelaxations),
                  heap_refills ? work.relaxations : 0u);
      }
    }

    // Repairs: toggle 1-4 edges (insert a missing edge or delete a solely
    // owned one), then serve a few rows, each repaired over every edit
    // since it was last served.
    std::uint64_t repair_relaxations = 0;
    for (int round = 0; round < 40; ++round) {
      const int toggles = 1 + static_cast<int>(rng.uniform_below(4));
      for (int k = 0; k < toggles;) {
        const int a = static_cast<int>(rng.uniform_below(c.n));
        const int b = static_cast<int>(rng.uniform_below(c.n));
        if (a == b) continue;
        const StrategyProfile& s = engine.profile();
        if (!s.has_edge(a, b)) {
          engine.add_buy(a, b);
          edits.push_back({a, b, game.weight(a, b), true});
        } else if (s.buys(a, b) && !s.buys(b, a)) {
          engine.remove_buy(a, b);
          edits.push_back({a, b, game.weight(a, b), false});
        } else {
          continue;
        }
        ++k;
      }
      for (int q = 0; q < 3; ++q) {
        const std::size_t i = rng.uniform_below(agents.size());
        const int u = agents[i];
        SCOPED_TRACE(::testing::Message() << "round " << round << " agent "
                                          << u);
        const std::vector<reference::RowEdit> pending(
            edits.begin() + static_cast<std::ptrdiff_t>(served_at[i]),
            edits.end());
        ASSERT_LE(pending.size(), DeviationEngine::kEditLogCapacity);
        const std::uint64_t want_relaxations =
            reference::binary_heap_row_repair(u, rows[i], pending, graph,
                                              has_edge);
        repair_relaxations += want_relaxations;
        std::vector<double> fresh;
        reference::binary_heap_dijkstra_over(c.n, u, graph, fresh);
        expect_rows_bitwise(rows[i], fresh);

        const instrument::ThreadFrame frame;
        const std::vector<double>& got = engine.distances(u);
        const instrument::CounterArray delta = frame.delta();
        expect_rows_bitwise(got, rows[i]);
        if (instrument::compiled_in()) {
          EXPECT_EQ(slot(delta, Counter::kEngineRowRepairs),
                    pending.empty() ? 0u : 1u);
          EXPECT_EQ(slot(delta, Counter::kEngineRepairRelaxations),
                    want_relaxations);
        }
        served_at[i] = edits.size();
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(repair_relaxations, 0u);
  }
}

}  // namespace
}  // namespace gncg
