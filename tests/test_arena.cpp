// Scratch-arena discipline: the zero-steady-state-allocation probe and the
// workspace shrink-policy regressions.
//
// The probes enforce "hot paths draw every buffer from the worker arena":
// global operator new/delete are replaced with counting versions, the engine
// loop (mutate -> warm_distances -> warm single-move scans on a dial and a
// heap host -> cost_of_strategy) and a full-mode exact best-response sweep
// are each run until warm, and then further identical iterations must
// perform ZERO heap allocations.  Any future per-call vector, to_vector(), or
// std::function sneaking into the scan/SSSP paths turns this red.
//
// Each mutation leaves every row one epoch stale, so warm_distances() runs
// the engine's edit-log row repair; the probe asserts that path was taken.
//
// The probe runs the pool at one thread: parallel_for dispatch itself
// allocates (a std::function per region), which is out of scope -- the
// contract is about the per-item work, which is what executes on workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/best_response.hpp"
#include "core/deviation_engine.hpp"
#include "core/profile_gen.hpp"
#include "graph/dijkstra.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting global allocator: every allocation in this binary bumps the
// counter.  Deliberately minimal -- malloc/free with the required
// bad_alloc/null handling.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gncg {
namespace {

TEST(ArenaProbe, SteadyStateMoveEvaluationDoesNotAllocate) {
  set_default_thread_count(1);
  Rng rng(20260808);
  const int n = 24;
  const Game game(random_one_two_host(n, 0.5, rng), /*alpha=*/1.6);
  DeviationEngine engine(game, random_profile(game, rng, 0.25));
  ASSERT_TRUE(engine.dial_enabled());  // 1-2 host: bucket-queue path
  // A euclidean host on the binary heap: its warm single-move scans (host
  // weight row, addition-sum memo, masked Dijkstras) join every iteration.
  const Game euclid(HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                           2.0),
                    /*alpha=*/40.0);
  DeviationEngine heap_engine(euclid, random_profile(euclid, rng, 0.25));
  ASSERT_FALSE(heap_engine.dial_enabled());
  heap_engine.warm_distances();

  // A toggled edge not present in the profile, so add/remove flips the
  // built topology (and therefore invalidates every distance cache) each
  // iteration.
  int flip_u = -1, flip_v = -1;
  for (int u = 0; u < n && flip_u < 0; ++u)
    for (int v = u + 1; v < n; ++v)
      if (!engine.profile().has_edge(u, v)) {
        flip_u = u;
        flip_v = v;
        break;
      }
  ASSERT_GE(flip_u, 0);

  NodeSet probe_strategy(n);
  probe_strategy.insert(flip_v);
  probe_strategy.insert((flip_v + 1) % n == flip_u ? (flip_v + 2) % n
                                                   : (flip_v + 1) % n);

  double checksum_first = 0.0;
  auto iteration = [&]() {
    double checksum = 0.0;
    engine.add_buy(flip_u, flip_v);
    engine.warm_distances();
    for (int a = 0; a < n; ++a) {
      checksum += engine.best_single_move_warm(a).cost;
      checksum += engine.cost_of_strategy(a, probe_strategy);
      checksum += heap_engine.best_single_move_warm(a).cost;
    }
    engine.remove_buy(flip_u, flip_v);
    engine.warm_distances();
    for (int a = 0; a < n; ++a) checksum += engine.best_swap_warm(a).cost;
    return checksum;
  };

  // Warm-up: let every arena buffer, CSR slack slot and cache vector reach
  // steady-state capacity.
  for (int i = 0; i < 3; ++i) checksum_first = iteration();

  constexpr std::size_t kRepairs =
      static_cast<std::size_t>(instrument::Counter::kEngineRowRepairs);
  const std::uint64_t repairs_before = instrument::thread_counters()[kRepairs];
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum_probe = 0.0;
  for (int i = 0; i < 4; ++i) checksum_probe = iteration();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t repairs_after = instrument::thread_counters()[kRepairs];

  EXPECT_EQ(after - before, 0u)
      << "steady-state engine loop performed heap allocations";
  // The stale rows took the edit-log repair path, so the gate covers it.
  if (instrument::compiled_in()) {
    EXPECT_GT(repairs_after, repairs_before);
  }
  // Same mutations, same caches -> identical results (and the compiler
  // cannot elide the probe loop).
  EXPECT_DOUBLE_EQ(checksum_probe, checksum_first);
  set_default_thread_count(0);
}

TEST(ArenaProbe, SteadyStateExactBestResponseDoesNotAllocate) {
  // Full-mode exact best responses (the NE-certification loop): facility
  // rows, branch distance vectors, min-merge undo logs, branch outcomes and
  // strategy sets all come from the arena, and the out-parameter form
  // reuses the result's strategy storage.  A dial host and a heap host.
  set_default_thread_count(1);
  Rng rng(20261017);
  const int n = 24;
  const Game dense(random_one_two_host(n, 0.5, rng), /*alpha=*/1.6);
  const Game euclid(HostGraph::from_points(uniform_points(n, 2, 100.0, rng),
                                           2.0),
                    /*alpha=*/40.0);
  const DeviationEngine dense_engine(dense,
                                     random_profile(dense, rng, 0.25));
  const DeviationEngine euclid_engine(euclid,
                                      random_profile(euclid, rng, 0.25));

  BestResponseResult result;
  const BestResponseOptions options;  // full mode, infinite incumbent
  auto sweep = [&]() {
    double checksum = 0.0;
    for (const DeviationEngine* engine : {&dense_engine, &euclid_engine})
      for (int u = 0; u < n; ++u) {
        exact_best_response(*engine, u, options, result);
        checksum += result.cost + static_cast<double>(result.evaluations);
      }
    return checksum;
  };

  double checksum_first = 0.0;
  for (int i = 0; i < 2; ++i) checksum_first = sweep();

  constexpr std::size_t kRowBuilds =
      static_cast<std::size_t>(instrument::Counter::kBrRowBuilds);
  const std::uint64_t rows_before = instrument::thread_counters()[kRowBuilds];
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum_probe = 0.0;
  for (int i = 0; i < 3; ++i) checksum_probe = sweep();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t rows_after = instrument::thread_counters()[kRowBuilds];

  EXPECT_EQ(after - before, 0u)
      << "steady-state exact best responses performed heap allocations";
  if (instrument::compiled_in()) {
    EXPECT_GT(rows_after, rows_before);  // the row path ran
  }
  EXPECT_DOUBLE_EQ(checksum_probe, checksum_first);
  set_default_thread_count(0);
}

TEST(ArenaProbe, ArenaStatsReportRegisteredArenas) {
  // Touch the calling thread's arena so at least one exists.
  ScratchArena& arena = worker_arena();
  ASSERT_EQ(&arena, &worker_arena());  // stable per thread
  const ArenaStats stats = arena_stats();
  EXPECT_GE(stats.arenas, 1u);
  // Footprint tracks the registered arenas' buffers and never goes down as
  // long as the buffers keep their capacity.
  arena.sum_dist().reserve(1024);
  EXPECT_GE(arena_stats().footprint_bytes, 1024 * sizeof(double));
}

// --- shrink-policy regressions (satellite: decreasing-n engine reuse) ------

/// Star host: node 0 adjacent to 1..n-1 with weight 1 -- drives the heap /
/// pending-ring population to ~n from source 0.
template <class Fn>
void star_neighbors(int n, int u, Fn&& visit) {
  if (u == 0) {
    for (int v = 1; v < n; ++v) visit(v, 1.0);
  } else {
    visit(0, 1.0);
  }
}

TEST(ShrinkPolicy, DijkstraBuffersReleaseBigRunCapacity) {
  DijkstraBuffers buffers;
  const int big = 6000, small = 8;
  const auto& big_dist = buffers.run(
      big, 0, [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  EXPECT_DOUBLE_EQ(big_dist[1], 1.0);
  EXPECT_GE(buffers.dist_capacity(), static_cast<std::size_t>(big));
  EXPECT_GT(buffers.heap_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);

  // dist shrinks on the first small run; the heap's shrink estimate decays
  // by halves from the big run's peak (max(last peak, estimate / 2)), so a
  // genuine downshift releases after ~log2(big / small) runs instead of
  // churning on alternating workloads.
  for (int round = 0; round < 12; ++round) {
    const auto& dist = buffers.run(small, 0, [&](int u, auto&& visit) {
      star_neighbors(small, u, visit);
    });
    ASSERT_EQ(dist.size(), static_cast<std::size_t>(small));
    for (int v = 1; v < small; ++v) EXPECT_DOUBLE_EQ(dist[v], 1.0);
  }
  EXPECT_LE(buffers.dist_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);
  EXPECT_LE(buffers.heap_capacity(),
            detail::kShrinkFactor * detail::kShrinkFloor);
}

TEST(ShrinkPolicy, DijkstraBuffersKeepStableWorkloadCapacity) {
  DijkstraBuffers buffers;
  const int n = 300;
  for (int round = 0; round < 3; ++round)
    buffers.run(n, 0,
                [&](int u, auto&& visit) { star_neighbors(n, u, visit); });
  const std::size_t dist_cap = buffers.dist_capacity();
  const std::size_t heap_cap = buffers.heap_capacity();
  // A stable workload must not shrink-then-regrow (that would break the
  // zero-allocation probe above).
  for (int round = 0; round < 5; ++round)
    buffers.run(n, 0,
                [&](int u, auto&& visit) { star_neighbors(n, u, visit); });
  EXPECT_EQ(buffers.dist_capacity(), dist_cap);
  EXPECT_EQ(buffers.heap_capacity(), heap_cap);
}

TEST(ShrinkPolicy, DialBuffersShrinkRingArray) {
  DialBuffers buffers;
  const int n = 64;
  // Big weight bound: 501 rings.
  buffers.run(n, 0, /*max_weight=*/500, [&](int u, auto&& visit) {
    if (u == 0)
      for (int v = 1; v < n; ++v) visit(v, 500.0);
    else
      visit(0, 500.0);
  });
  EXPECT_EQ(buffers.ring_count(), 501u);
  // Small bound afterwards: the ring array releases down to what is needed.
  const auto& dist = buffers.run(n, 0, /*max_weight=*/3,
                                 [&](int u, auto&& visit) {
                                   star_neighbors(n, u, visit);
                                 });
  EXPECT_EQ(buffers.ring_count(), 4u);
  for (int v = 1; v < n; ++v) EXPECT_DOUBLE_EQ(dist[v], 1.0);
}

TEST(ShrinkPolicy, IncrementalSsspResetReleasesBigRunState) {
  IncrementalSssp sssp;
  const int big = 8000;
  std::vector<double> base(static_cast<std::size_t>(big), 1.0);
  base[0] = 0.0;
  sssp.reset(base);
  // Insert a much better edge to node 0's neighbors: every node improves,
  // so the change log and repair heap reach ~n entries.
  const auto mark = sssp.checkpoint();
  sssp.relax_insert(1, 0.25, [&](int u, auto&& visit) {
    if (u == 1)
      for (int v = 2; v < big; ++v) visit(v, 0.25);
  });
  EXPECT_DOUBLE_EQ(sssp.dist()[2], 0.5);
  sssp.rollback(mark);
  const std::size_t big_footprint = sssp.footprint_bytes();
  EXPECT_GT(big_footprint, static_cast<std::size_t>(big) * sizeof(double));

  // Re-targeting the workspace at a small engine releases the big-run
  // capacity: dist immediately, log/heap through the decaying need estimate
  // (halved per reset from the big run's peak), so the release lands within
  // ~log2(big) resets of a sustained downshift.
  std::vector<double> small_base{0.0, 1.0, 2.0, 3.0};
  for (int round = 0; round < 16; ++round) sssp.reset(small_base);
  EXPECT_LT(sssp.footprint_bytes(), big_footprint / 4);
  EXPECT_EQ(sssp.dist().size(), small_base.size());
}

TEST(ShrinkPolicy, AlternatingWorkloadsKeepCapacity) {
  // The PR 8 policy shrank from the *last* run's peak alone, so a workload
  // alternating small probes and large floods (the bounded ladder's probe /
  // commit pattern) released and re-grew its buffers every other call --
  // 923 arena_shrink_events over one pass of the three large-tier points
  // (n = 10^4, 10^5, 10^6).  The decaying estimate must keep the large
  // capacity across interleaved small runs.
  DijkstraBuffers buffers;
  const int big = 6000, small = 8;
  buffers.run(big, 0,
              [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  const std::size_t big_heap_cap = buffers.heap_capacity();
  for (int round = 0; round < 6; ++round) {
    buffers.run(small, 0,
                [&](int u, auto&& visit) { star_neighbors(small, u, visit); });
    buffers.run(big, 0,
                [&](int u, auto&& visit) { star_neighbors(big, u, visit); });
  }
  EXPECT_EQ(buffers.heap_capacity(), big_heap_cap);

  IncrementalSssp sssp;
  std::vector<double> base(static_cast<std::size_t>(big), 1.0);
  base[0] = 0.0;
  const auto flood = [&](IncrementalSssp& s) {
    const auto mark = s.checkpoint();
    s.relax_insert(1, 0.25, [&](int u, auto&& visit) {
      if (u == 1)
        for (int v = 2; v < big; ++v) visit(v, 0.25);
    });
    s.rollback(mark);
  };
  sssp.reset(base);
  flood(sssp);
  const std::size_t big_footprint = sssp.footprint_bytes();
  for (int round = 0; round < 6; ++round) {
    sssp.reset(base);  // no flood: peak stays tiny this round
    sssp.reset(base);
    flood(sssp);
  }
  EXPECT_EQ(sssp.footprint_bytes(), big_footprint);
}

}  // namespace
}  // namespace gncg
