// Differential tests for the host-metric backend layer: implicit
// (euclidean / tree / lazy-closure) backends against the materialized dense
// path, plus the large-n no-materialization guarantee.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/best_response.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/game.hpp"
#include "graph/apsp.hpp"
#include "metric/host_backend.hpp"
#include "metric/host_graph.hpp"
#include "metric/instance_io.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

// --- backend selection ----------------------------------------------------

TEST(HostBackend, FactoriesPickTheRightBackend) {
  Rng rng(101);
  EXPECT_EQ(random_metric_host(5, rng).backend_kind(),
            HostBackendKind::kDense);
  EXPECT_EQ(HostGraph::unit(4).backend_kind(), HostBackendKind::kDense);
  EXPECT_EQ(
      HostGraph::from_points(uniform_points(6, 2, 1.0, rng), 2.0)
          .backend_kind(),
      HostBackendKind::kEuclidean);
  EXPECT_EQ(HostGraph::from_tree(random_tree(6, rng)).backend_kind(),
            HostBackendKind::kTree);
  EXPECT_EQ(HostGraph::from_weights_lazy(DistanceMatrix(4, 1.0)).backend_kind(),
            HostBackendKind::kLazyClosure);
  EXPECT_EQ(backend_name(HostBackendKind::kEuclidean), "euclidean");
  EXPECT_EQ(backend_name(HostBackendKind::kLazyClosure), "lazy");
}

// --- host_distance_sum contract on every backend ---------------------------

/// The contract best-response search relies on: host_distance_sum(u) is
/// the sum of host_distance(u, v) over v in increasing order, bit for bit
/// (br_search sums the host row it builds as its global floor, the naive
/// search calls host_distance_sum).
void expect_sums_are_in_order_row_sums(const HostGraph& host,
                                       const std::string& label) {
  for (int u = 0; u < host.node_count(); ++u) {
    double row_sum = 0.0;
    for (int v = 0; v < host.node_count(); ++v)
      row_sum += host.host_distance(u, v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(host.host_distance_sum(u)),
              std::bit_cast<std::uint64_t>(row_sum))
        << label << " agent " << u;
  }
}

TEST(HostBackend, HostDistanceSumIsTheInOrderRowSumOnEveryBackend) {
  Rng rng(127);
  for (const int n : {5, 63, 257}) {
    const std::string at_n = " n=" + std::to_string(n);
    // Real, non-metric weights so the dense / lazy closures differ from w.
    DistanceMatrix weights(n, 0.0);
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        weights.set_symmetric(u, v, rng.uniform_real(1.0, 10.0));
    expect_sums_are_in_order_row_sums(HostGraph::from_weights(weights),
                                      "dense" + at_n);
    expect_sums_are_in_order_row_sums(HostGraph::from_weights_lazy(weights),
                                      "lazy" + at_n);
    const auto points = uniform_points(n, 2, 10.0, rng);
    for (const double p : {1.0, 2.0, 3.0})
      expect_sums_are_in_order_row_sums(
          HostGraph::from_points(points, p),
          "euclidean p=" + std::to_string(p) + at_n);
    expect_sums_are_in_order_row_sums(HostGraph::from_tree(random_tree(n, rng)),
                                      "tree" + at_n);
  }
}

// --- euclidean backend vs materialized matrices ---------------------------

TEST(HostBackend, EuclideanWeightsBitExactVsMaterializedMatrix) {
  Rng rng(103);
  for (const double p : {1.0, 2.0, 3.0, kPNormInf}) {
    for (const int dim : {1, 2, 3}) {
      const auto points = uniform_points(64, dim, 10.0, rng);
      const auto implicit = HostGraph::from_points(points, p);
      const DistanceMatrix materialized = points.distance_matrix(p);
      for (int u = 0; u < 64; ++u)
        for (int v = 0; v < 64; ++v) {
          EXPECT_EQ(implicit.weight(u, v), materialized.at(u, v))
              << "p=" << p << " dim=" << dim << " (" << u << "," << v << ")";
          // p-norms are metrics: the closure is the weight itself.
          EXPECT_EQ(implicit.host_distance(u, v), materialized.at(u, v));
        }
    }
  }
}

TEST(HostBackend, EuclideanHostDistanceBitExactVsDenseClosure) {
  Rng rng(107);
  const auto points = uniform_points(48, 2, 10.0, rng);
  const auto implicit = HostGraph::from_points(points, 2.0);
  const auto dense = HostGraph::from_weights(points.distance_matrix(2.0),
                                             ModelClass::kEuclidean);
  for (int u = 0; u < 48; ++u) {
    for (int v = 0; v < 48; ++v)
      EXPECT_EQ(implicit.host_distance(u, v), dense.host_distance(u, v));
    EXPECT_EQ(implicit.host_distance_sum(u), dense.host_distance_sum(u));
  }
}

TEST(HostBackend, EuclideanDegenerateLinesAndGrids) {
  // Collinear dim-1 points: every p-norm degenerates to |x_i - x_j| and the
  // triangle inequality is tight -- the closure must still equal the weight.
  const auto line = line_points({0.0, 1.0, 3.0, 3.0, 10.0});
  for (const double p : {1.0, 2.0, kPNormInf}) {
    const auto host = HostGraph::from_points(line, p);
    const auto closure = host.shortest_path_closure();
    for (int u = 0; u < 5; ++u)
      for (int v = 0; v < 5; ++v) {
        EXPECT_EQ(host.weight(u, v), closure.at(u, v));
        EXPECT_EQ(host.host_distance(u, v), host.weight(u, v));
      }
  }
  // Grid under Chebyshev: integer coordinates, exact tight triangles.
  const auto grid = grid_points(4, 2, 1.0);
  const auto host = HostGraph::from_points(grid, kPNormInf);
  const DistanceMatrix materialized = grid.distance_matrix(kPNormInf);
  for (int u = 0; u < host.node_count(); ++u)
    for (int v = 0; v < host.node_count(); ++v)
      EXPECT_EQ(host.host_distance(u, v), materialized.at(u, v));
}

// --- tree backend vs materialized closure ---------------------------------

WeightedTree random_integer_tree(int n, Rng& rng) {
  auto tree = random_tree(n, rng, 1.0, 9.0);
  std::vector<Edge> edges = tree.edges();
  for (auto& e : edges) e.weight = std::floor(e.weight);
  return WeightedTree(n, std::move(edges));
}

TEST(HostBackend, TreeLcaDistancesBitExactOnIntegerWeights) {
  Rng rng(109);
  for (int trial = 0; trial < 8; ++trial) {
    const auto tree = random_integer_tree(40, rng);
    const auto host = HostGraph::from_tree(tree);
    const DistanceMatrix closure = tree.metric_closure();
    for (int u = 0; u < 40; ++u) {
      double sum = 0.0;
      for (int v = 0; v < 40; ++v) {
        EXPECT_EQ(host.host_distance(u, v), closure.at(u, v))
            << "trial " << trial << " pair (" << u << "," << v << ")";
        EXPECT_EQ(host.weight(u, v), closure.at(u, v));
        sum += closure.at(u, v);
      }
      EXPECT_EQ(host.host_distance_sum(u), sum) << "agent " << u;
    }
  }
}

TEST(HostBackend, TreeLcaDistancesMatchClosureOnRealWeights) {
  Rng rng(113);
  for (int trial = 0; trial < 5; ++trial) {
    const auto tree = random_tree(64, rng, 0.5, 12.0);
    const auto host = HostGraph::from_tree(tree);
    const DistanceMatrix closure = tree.metric_closure();
    for (int u = 0; u < 64; ++u)
      for (int v = u + 1; v < 64; ++v)
        EXPECT_NEAR(host.host_distance(u, v), closure.at(u, v),
                    1e-9 * std::max(1.0, closure.at(u, v)));
  }
}

TEST(HostBackend, TreePathAndStarShapes) {
  const auto path = path_tree({1.0, 2.0, 4.0, 8.0});
  const auto host = HostGraph::from_tree(path);
  EXPECT_DOUBLE_EQ(host.host_distance(0, 4), 15.0);
  EXPECT_DOUBLE_EQ(host.host_distance(1, 3), 6.0);
  EXPECT_DOUBLE_EQ(host.host_distance_sum(0), 1.0 + 3.0 + 7.0 + 15.0);

  const auto star = star_tree(6, /*center=*/2, /*leaf_weight=*/3.0);
  const auto star_host = HostGraph::from_tree(star);
  for (int v = 0; v < 6; ++v) {
    if (v == 2) continue;
    EXPECT_DOUBLE_EQ(star_host.host_distance(2, v), 3.0);
    for (int w = 0; w < 6; ++w)
      if (w != v && w != 2)
        EXPECT_DOUBLE_EQ(star_host.host_distance(v, w), 6.0);
  }
}

// --- lazy closure backend vs dense ----------------------------------------

TEST(HostBackend, LazyClosureBitExactOnIntegerWeightsAndRowGranular) {
  Rng rng(127);
  DistanceMatrix weights(24, 0.0);
  for (int u = 0; u < 24; ++u)
    for (int v = u + 1; v < 24; ++v)
      weights.set_symmetric(u, v,
                            std::floor(rng.uniform_real(1.0, 10.0)));
  const auto dense = HostGraph::from_weights(weights);
  const auto lazy = HostGraph::from_weights_lazy(weights);

  const auto* backend =
      dynamic_cast<const LazyClosureHostBackend*>(&lazy.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->rows_computed(), 0);
  EXPECT_EQ(lazy.host_distance(3, 17), dense.host_distance(3, 17));
  EXPECT_EQ(backend->rows_computed(), 1);  // only the queried row

  for (int u = 0; u < 24; ++u) {
    EXPECT_EQ(lazy.host_distance_sum(u), dense.host_distance_sum(u));
    for (int v = 0; v < 24; ++v)
      EXPECT_EQ(lazy.host_distance(u, v), dense.host_distance(u, v));
  }
  EXPECT_EQ(backend->rows_computed(), 24);
}

TEST(HostBackend, LazyClosureMatchesDenseOnRealAndOneInfHosts) {
  Rng rng(131);
  {
    const auto host = random_general_host(20, rng);
    const auto lazy = HostGraph::from_weights_lazy(host.weights());
    for (int u = 0; u < 20; ++u)
      for (int v = 0; v < 20; ++v)
        EXPECT_NEAR(lazy.host_distance(u, v), host.host_distance(u, v),
                    1e-12 * std::max(1.0, host.host_distance(u, v)));
  }
  {
    const auto host = random_one_inf_host(16, 0.3, rng);
    const auto lazy = HostGraph::from_weights_lazy(host.weights());
    for (int u = 0; u < 16; ++u)
      for (int v = 0; v < 16; ++v)
        EXPECT_EQ(lazy.host_distance(u, v), host.host_distance(u, v));
  }
}

// --- game-level agreement: equilibrium / best response ---------------------

TEST(HostBackend, BestResponseIdenticalUnderImplicitAndDenseBackends) {
  Rng rng(137);
  const auto points = uniform_points(10, 2, 10.0, rng);
  const Game implicit(HostGraph::from_points(points, 2.0), 1.5);
  const Game dense(HostGraph::from_weights(points.distance_matrix(2.0),
                                           ModelClass::kEuclidean),
                   1.5);
  Rng profile_rng(139);
  const auto profile = random_profile(implicit, profile_rng, 0.2);
  for (int u = 0; u < 10; ++u) {
    const auto a = exact_best_response(implicit, profile, u);
    const auto b = exact_best_response(dense, profile, u);
    EXPECT_EQ(a.cost, b.cost) << "agent " << u;
    EXPECT_TRUE(a.strategy == b.strategy) << "agent " << u;
    EXPECT_EQ(a.improved, b.improved) << "agent " << u;
    EXPECT_EQ(a.evaluations, b.evaluations) << "agent " << u;

    const auto ma = best_single_move(implicit, profile, u);
    const auto mb = best_single_move(dense, profile, u);
    EXPECT_EQ(ma.cost, mb.cost) << "agent " << u;
    EXPECT_EQ(ma.current_cost, mb.current_cost) << "agent " << u;
    EXPECT_EQ(ma.move.type, mb.move.type) << "agent " << u;
    EXPECT_EQ(ma.move.remove, mb.move.remove) << "agent " << u;
    EXPECT_EQ(ma.move.add, mb.move.add) << "agent " << u;
  }
  EXPECT_EQ(is_nash_equilibrium(implicit, profile),
            is_nash_equilibrium(dense, profile));
}

TEST(HostBackend, TreeGameAgreesWithDenseOnIntegerWeights) {
  Rng rng(149);
  const auto tree = random_integer_tree(9, rng);
  const Game implicit(HostGraph::from_tree(tree), 2.0);
  const Game dense(
      HostGraph::from_weights(tree.metric_closure(), ModelClass::kTree), 2.0);
  Rng profile_rng(151);
  const auto profile = random_profile(implicit, profile_rng, 0.3);
  for (int u = 0; u < 9; ++u) {
    const auto a = exact_best_response(implicit, profile, u);
    const auto b = exact_best_response(dense, profile, u);
    EXPECT_EQ(a.cost, b.cost) << "agent " << u;
    EXPECT_TRUE(a.strategy == b.strategy) << "agent " << u;
    EXPECT_EQ(a.evaluations, b.evaluations) << "agent " << u;
  }
  EXPECT_EQ(is_nash_equilibrium(implicit, profile),
            is_nash_equilibrium(dense, profile));
  EXPECT_EQ(is_greedy_equilibrium(implicit, profile),
            is_greedy_equilibrium(dense, profile));
}

// --- large-n: no O(n^2) host matrix, ever ---------------------------------

TEST(HostBackend, LargeEuclideanGameNeverMaterializesAMatrix) {
  constexpr int kN = 4096;
  Rng rng(157);
  const std::uint64_t cells_before = DistanceMatrix::allocated_cells_total();

  const auto points = uniform_points(kN, 2, 1000.0, rng);
  const Game game(HostGraph::from_points(points, 2.0), 4.0);

  // Path profile: agent i buys the edge to i+1.
  StrategyProfile profile(kN);
  for (int i = 0; i + 1 < kN; ++i) profile.add_buy(i, i + 1);

  DeviationEngine engine(game, std::move(profile));
  engine.warm_distances();

  // Every agent is far from most of the point cloud on a path network, so
  // each has an improving single move (the scan early-exits quickly).
  int improving = 0;
  for (int u = 0; u < kN; ++u)
    if (engine.has_improving_single_move(u)) ++improving;
  EXPECT_EQ(improving, kN);

  // Exact best single move for a sample of agents exercises the full scan
  // (additions, deletes, bridge swaps) at n = 4096.
  for (int u = 0; u < kN; u += 512) {
    const auto result = engine.best_single_move_warm(u);
    EXPECT_TRUE(result.improved) << "agent " << u;
    EXPECT_LT(result.cost, result.current_cost);
  }

  // Host distances come straight from the point set.
  EXPECT_EQ(game.host_distance(17, 4095),
            points.distance(17, 4095, 2.0));

  // The whole workload -- host + game construction, engine warm-up, the
  // all-agents improving-move sweep and the sampled exact scans -- must not
  // have allocated a single DistanceMatrix cell.
  EXPECT_EQ(DistanceMatrix::allocated_cells_total() - cells_before, 0u);
}

TEST(HostBackend, LargeTreeGameNeverMaterializesAMatrix) {
  constexpr int kN = 4096;
  Rng rng(163);
  const std::uint64_t cells_before = DistanceMatrix::allocated_cells_total();

  const auto tree = random_tree(kN, rng, 1.0, 10.0);
  const Game game(HostGraph::from_tree(tree), 2.0);

  // The host's own tree is a natural profile: buy each tree edge at its
  // smaller endpoint.
  StrategyProfile profile(kN);
  for (const auto& e : tree.edges()) profile.add_buy(e.u, e.v);

  DeviationEngine engine(game, std::move(profile));
  engine.warm_distances();
  for (int u = 0; u < kN; u += 512) {
    const auto result = engine.best_single_move_warm(u);
    EXPECT_DOUBLE_EQ(result.current_cost,
                     engine.agent_cost_warm(u));
  }
  // O(1) LCA distances and O(n)-precomputed sums, no matrix.
  EXPECT_GT(game.host_distance_sum(0), 0.0);
  EXPECT_EQ(DistanceMatrix::allocated_cells_total() - cells_before, 0u);
}

// --- instance IO: backend kind round-trips --------------------------------

TEST(HostBackend, InstanceIoRoundTripsEuclideanProvenance) {
  Rng rng(167);
  const auto points = uniform_points(12, 3, 5.0, rng);
  const auto host = HostGraph::from_points(points, kPNormInf);
  std::stringstream buffer;
  save_host(buffer, host);
  const auto loaded = load_host(buffer);
  EXPECT_EQ(loaded.backend_kind(), HostBackendKind::kEuclidean);
  EXPECT_EQ(loaded.declared_model(), ModelClass::kEuclidean);
  ASSERT_NE(loaded.points(), nullptr);
  EXPECT_EQ(loaded.norm_p(), host.norm_p());
  for (int u = 0; u < 12; ++u)
    for (int v = 0; v < 12; ++v)
      EXPECT_EQ(loaded.weight(u, v), host.weight(u, v));
}

TEST(HostBackend, InstanceIoRoundTripsTreeProvenance) {
  Rng rng(173);
  const auto tree = random_tree(10, rng, 1.0, 6.0);
  const auto host = HostGraph::from_tree(tree);
  std::stringstream buffer;
  save_host(buffer, host);
  const auto loaded = load_host(buffer);
  EXPECT_EQ(loaded.backend_kind(), HostBackendKind::kTree);
  EXPECT_EQ(loaded.declared_model(), ModelClass::kTree);
  ASSERT_TRUE(loaded.tree_edges().has_value());
  EXPECT_EQ(loaded.tree_edges()->size(), tree.edges().size());
  for (int u = 0; u < 10; ++u)
    for (int v = 0; v < 10; ++v)
      EXPECT_EQ(loaded.weight(u, v), host.weight(u, v));
}

TEST(HostBackend, InstanceIoRoundTripsLazyBackendKind) {
  Rng rng(179);
  const auto host = HostGraph::from_weights_lazy(
      random_one_two_host(6, 0.5, rng).weights(), ModelClass::kOneTwo);
  std::stringstream buffer;
  save_host(buffer, host);
  const auto loaded = load_host(buffer);
  EXPECT_EQ(loaded.backend_kind(), HostBackendKind::kLazyClosure);
  EXPECT_EQ(loaded.declared_model(), ModelClass::kOneTwo);
  for (int u = 0; u < 6; ++u)
    for (int v = 0; v < 6; ++v)
      EXPECT_EQ(loaded.weight(u, v), host.weight(u, v));
}

}  // namespace
}  // namespace gncg
