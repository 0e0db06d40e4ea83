#include "core/br_search.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/incremental_sssp.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

/// MAX objective: eccentricity instead of the sum (order-insensitive).
struct MaxCostModel {
  static double distance_term(const std::vector<double>& dist) {
    double worst = 0.0;
    for (double d : dist) worst = std::max(worst, d);
    return worst;
  }

  static double tight_floor(const std::vector<double>& host_row,
                            const std::vector<double>& dist, double w_next) {
    double worst = 0.0;
    for (std::size_t t = 0; t < dist.size(); ++t)
      worst = std::max(worst, std::max(host_row[t],
                                       std::min(dist[t], w_next)));
    return worst;
  }
};

// --- branch-local DFS -----------------------------------------------------

/// One first-level branch of the subset DFS: all subsets whose smallest
/// chosen candidate index is `branch`.  Owns its distance state and writes
/// its result into its own outcome slot; shares nothing mutable, so
/// branches run concurrently and the fold over branch outcomes is
/// independent of thread count.
template <class Model>
struct BranchSearch {
  const Game* game = nullptr;
  /// The driver's setup, read-only during the fan-out: candidates, their
  /// weights, the host row and the row table.
  const BrSearchSetup* setup = nullptr;
  double cheap_floor = 0.0;
  double base_bound = kInf;  ///< min(empty-set recorded cost, incumbent)
  double incumbent = kInf;   ///< original bound (improved = beat this)
  bool first_improvement = false;
  int branch = 0;
  const std::atomic<int>* winner = nullptr;  ///< lowest improving branch

  /// The branch's result slot (BrScratch::Outcome, owned by the driver).
  ScratchArena::BrScratch::Outcome* out = nullptr;
  /// Chosen candidate targets; from the executing worker's arena, like the
  /// distance state below.  Branches run to completion on one thread, so
  /// sequential branches on the same worker share these buffers.
  NodeSet* current = nullptr;
  double current_weight = 0.0;
  bool done = false;

  /// This branch's distance vector and min-merge undo log over the setup's
  /// exact row table: d_S itself.  Inserting candidate i lowers dist to
  /// min(dist, row_i) and logs every overwrite; removing it replays the log
  /// back to the insert's mark.
  std::vector<double>* dist = nullptr;
  std::vector<std::pair<int, double>>* undo = nullptr;

  /// Work counts, flushed once per branch (flush_counters) rather than
  /// bumped per DFS node; evaluations are out->evaluations.
  GNCG_IF_INSTRUMENT(std::uint64_t expansions = 0;
                     std::uint64_t merge_writes = 0;)

  double bound() const { return std::min(out->cost, base_bound); }

  /// A branch whose index can no longer win the first-improvement fold (a
  /// lower branch already improved) stops; its result is discarded either
  /// way, so the fold outcome stays deterministic.
  bool aborted() const {
    return winner != nullptr &&
           winner->load(std::memory_order_relaxed) < branch;
  }

  void evaluate() {
    // Canonical evaluation: the edge-weight term is re-summed in increasing
    // target order (exactly AgentEnvironment::cost_of's order), so the
    // recorded cost is a function of the subset alone.  The DFS accumulator
    // `current_weight` is kept only for the pruning bound -- recording it
    // would carry path-dependent rounding noise (which subtrees were
    // explored before reaching this node), the pre-refactor search's
    // cost-vs-cost_of ulp mismatch.
    const double cost = game->alpha() * setup->edge_sum(*current) +
                        Model::distance_term(*dist);
    ++out->evaluations;
    if (improves(cost, bound())) {
      out->cost = cost;
      out->strategy = *current;
      out->improved = improves(cost, incumbent);
      if (first_improvement && out->improved) done = true;
    }
  }

  /// Two-level admissible cut for the subtree rooted at candidate i: the
  /// O(1) global floor first, then the per-node floor at w_next = w_i.
  /// Both are nondecreasing in the candidate weight, so on the
  /// weight-sorted list a failure cuts every later sibling too (the caller
  /// breaks).
  bool pruned(std::size_t i) const {
    const double b = bound();
    const double w = setup->weights[i];
    const double edge_cost = game->alpha() * (current_weight + w);
    if (!improves(edge_cost + cheap_floor, b)) {
      GNCG_COUNT(kBrPrunesGlobal);
      return true;
    }
    if (!improves(edge_cost + Model::tight_floor(setup->host_row, *dist, w),
                  b)) {
      GNCG_COUNT(kBrPrunesPerNode);
      return true;
    }
    return false;
  }

  /// dist <- min(dist, row_i), logging every overwrite.
  void insert(std::size_t i) {
    GNCG_IF_INSTRUMENT(++expansions;)
    current->insert(setup->candidates[i]);
    current_weight += setup->weights[i];
    std::vector<double>& d = *dist;
    GNCG_IF_INSTRUMENT(const std::size_t mark = undo->size();)
    for (const auto& [t, row_t] : setup->rows.entries[i]) {
      double& slot = d[static_cast<std::size_t>(t)];
      if (row_t < slot) {
        undo->emplace_back(t, slot);
        slot = row_t;
      }
    }
    GNCG_IF_INSTRUMENT(merge_writes += undo->size() - mark;)
  }

  void flush_counters() const {
    GNCG_COUNT_N(kBrExpansions, expansions);
    GNCG_COUNT_N(kBrEvaluations, out->evaluations);
    GNCG_COUNT_N(kBrMergeWrites, merge_writes);
  }

  void remove(std::size_t i, std::size_t mark) {
    std::vector<double>& d = *dist;
    while (undo->size() > mark) {
      const auto& [node, old_dist] = undo->back();
      d[static_cast<std::size_t>(node)] = old_dist;
      undo->pop_back();
    }
    current->erase(setup->candidates[i]);
    current_weight -= setup->weights[i];
  }

  /// Inserts candidate i, evaluates the subset and explores its supersets
  /// with larger indices, then backtracks.
  void expand(std::size_t i) {
    const std::size_t mark = undo->size();
    insert(i);
    evaluate();
    if (!done) descend(i + 1);
    remove(i, mark);
  }

  void descend(std::size_t start) {
    for (std::size_t i = start; i < setup->candidates.size() && !done; ++i) {
      if (aborted()) {
        GNCG_COUNT(kBrBranchAborts);
        done = true;
        break;
      }
      if (pruned(i)) break;
      expand(i);
    }
  }
};

/// The shared driver over a prepared setup: empty-set evaluation, the
/// facility rows the search needs, first-level fan-out over the worker
/// pool, deterministic in-order fold.  Writes into `result`, reusing its
/// strategy's storage.
template <class Model>
void run_search(const AgentEnvironment& env, BrSearchSetup& setup,
                double incumbent, bool first_improvement,
                BestResponseResult& result) {
  const Game& game = env.game();
  const int n = game.node_count();
  GNCG_COUNT(kBrSearches);

  // Driver scratch comes from the calling worker's arena.  Branch tasks on
  // other workers read the setup and these buffers through const pointers
  // only; branch tasks on *this* thread (the caller participates in the
  // fan-out) must therefore never write them -- they use the arena's
  // disjoint branch state (BrBranchScratch) instead.  The one exception is
  // the outcome table: slot i belongs to branch i.
  ScratchArena::BrScratch& scratch = worker_arena().br();
  const std::vector<double>& weights = setup.weights;
  const std::vector<double>& base = setup.base;
  const std::vector<double>& host_row = setup.host_row;
  // Global floor: the distance term of the host row itself (O(n); SUM adds
  // the row in increasing v order, bitwise equal to host_distance_sum(u) by
  // the backend contract -- the naive reference search's floor).
  const double cheap_floor = Model::distance_term(host_row);

  result.strategy.reset(n);
  result.cost = kInf;
  result.improved = false;
  const double empty_cost = game.alpha() * 0.0 + Model::distance_term(base);
  result.evaluations = 1;
  GNCG_COUNT(kBrEvaluations);
  bool done = false;
  if (improves(empty_cost, incumbent)) {
    result.cost = empty_cost;
    result.improved = true;
    if (first_improvement) done = true;
  }

  const std::size_t k = setup.candidates.size();
  if (!done && k > 0) {
    const double base_bound = std::min(result.cost, incumbent);

    // One exact improvement row per candidate, built once from the base
    // vector.  Only candidates passing the O(1) global entry cut need a
    // row: the cut's floor only grows with the DFS weight and the bound
    // only shrinks, so a candidate failing it at the root is never inserted
    // at any depth (on the weight-sorted list they form a suffix).  The
    // build is its own parallel pass, complete and read-only before the
    // fan-out starts; a setup whose rows exist already (the ladder's)
    // builds none.
    std::size_t row_count = 0;
    while (row_count < k &&
           improves(game.alpha() * (0.0 + weights[row_count]) + cheap_floor,
                    base_bound))
      ++row_count;
    setup.build_rows(env, row_count);
    // The min-merge is d_S only over exact rows; a capped table that
    // truncated belongs to the ladder's tier 1 alone.
    GNCG_CHECK(setup.rows_exact(),
               "br_search needs exact facility rows, but a row built under "
               "repair_cap " << setup.repair_cap << " was truncated");

    std::vector<ScratchArena::BrScratch::Outcome>& outcomes =
        scratch.outcomes;
    if (outcomes.size() < k) outcomes.resize(k);
    std::atomic<int> winner{INT_MAX};
    // One task per first-level branch; branch subtrees are whole jobs, so
    // short candidate lists still fan out (serial_cutoff 2).
    parallel_for(
        0, k,
        [&](std::size_t i) {
          ScratchArena::BrScratch::Outcome& out = outcomes[i];
          out.cost = kInf;
          out.improved = false;
          out.evaluations = 0;
          if (first_improvement &&
              winner.load(std::memory_order_relaxed) <
                  static_cast<int>(i)) {
            GNCG_COUNT(kBrBranchAborts);
            return;
          }
          // Entry cut against the base state (before paying the O(n)
          // seed copy).
          const double entry_edge = game.alpha() * (0.0 + weights[i]);
          if (!improves(entry_edge + cheap_floor, base_bound)) {
            GNCG_COUNT(kBrPrunesGlobal);
            return;
          }
          if (!improves(entry_edge +
                            Model::tight_floor(host_row, base, weights[i]),
                        base_bound)) {
            GNCG_COUNT(kBrPrunesPerNode);
            return;
          }

          ScratchArena::BrBranchScratch& branch_state =
              worker_arena().br_branch();
          BranchSearch<Model> search;
          search.game = &game;
          search.setup = &setup;
          search.cheap_floor = cheap_floor;
          search.base_bound = base_bound;
          search.incumbent = incumbent;
          search.first_improvement = first_improvement;
          search.branch = static_cast<int>(i);
          if (first_improvement) search.winner = &winner;
          search.out = &out;
          search.current = &branch_state.current;
          search.current->reset(n);
          search.dist = &branch_state.dist;
          search.undo = &branch_state.undo;
          *search.dist = base;
          search.undo->clear();
          search.expand(i);
          search.flush_counters();

          if (out.improved && first_improvement) {
            int expected = winner.load(std::memory_order_relaxed);
            while (static_cast<int>(i) < expected &&
                   !winner.compare_exchange_weak(
                       expected, static_cast<int>(i),
                       std::memory_order_relaxed)) {
            }
          }
        },
        /*grain=*/1, /*serial_cutoff=*/2);

    // Deterministic fold in branch order: strict improvement to replace
    // reproduces the sequential DFS's first-found-among-ties answer (the
    // smaller-lexicographic strategy in candidate order).  Strategies are
    // copied, not moved, so every slot keeps its storage for the next call.
    for (std::size_t i = 0; i < k; ++i) {
      const ScratchArena::BrScratch::Outcome& out = outcomes[i];
      result.evaluations += out.evaluations;
      if (first_improvement) {
        if (!result.improved && out.improved) {
          result.cost = out.cost;
          result.strategy = out.strategy;
          result.improved = true;
        }
      } else if (improves(out.cost, std::min(result.cost, incumbent))) {
        result.cost = out.cost;
        result.strategy = out.strategy;
        result.improved = improves(result.cost, incumbent);
      }
    }
  }

  // A full search (infinite incumbent) always reports the argmin, even when
  // every strategy costs kInf (hosts that cannot connect u at all).
  if (!(result.cost < kInf) && !(incumbent < kInf)) {
    result.cost = empty_cost;
  }
}

/// Prepares the calling worker's setup from `options`, then searches it.
template <class Model>
void prepare_and_run(const AgentEnvironment& env,
                     const BestResponseOptions& options,
                     BestResponseResult& result) {
  BrSearchSetup& setup = worker_arena().br().setup;
  prepare_br_setup(env, options.restrict_targets, /*repair_cap=*/0, setup);
  run_search<Model>(env, setup, options.incumbent, options.first_improvement,
                    result);
}

}  // namespace

void prepare_br_setup(const AgentEnvironment& env,
                      const std::vector<int>* restrict_targets,
                      std::size_t repair_cap, BrSearchSetup& setup) {
  const Game& game = env.game();
  const int n = game.node_count();
  const int u = env.agent();

  // Candidate targets sorted by edge weight so the branch-and-bound cut is
  // monotone.
  std::vector<std::pair<double, int>>& order = setup.order;
  order.clear();
  if (restrict_targets != nullptr) {
    for (int v : *restrict_targets)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
    std::sort(order.begin(), order.end());
    // A duplicated list entry would make the DFS insert one node twice;
    // collapse exact repeats (identical (weight, node) pairs).
    order.erase(std::unique(order.begin(), order.end()), order.end());
  } else {
    for (int v = 0; v < n; ++v)
      if (game.can_buy(u, v)) order.emplace_back(game.weight(u, v), v);
    std::sort(order.begin(), order.end());
  }
  setup.candidates.clear();
  setup.weights.clear();
  setup.weight_row.assign(static_cast<std::size_t>(n), kInf);
  for (const auto& [w, v] : order) {
    setup.candidates.push_back(v);
    setup.weights.push_back(w);
    setup.weight_row[static_cast<std::size_t>(v)] = w;
  }

  // The one Dijkstra of the search: u's distances in the bare environment
  // (the empty-strategy network).  Every branch seeds its distance state
  // from this.
  worker_arena().sssp_into(setup.base, n, u, game.host().dial_weight_bound(),
                           [&](int x, auto&& visit) {
                             env.for_neighbors(x, visit);
                           });

  // Host-closure row of u: the per-node admissible floor (stable per the
  // host-backend query contract; materialized once per search so the DFS
  // bound never re-queries implicit backends).
  setup.host_row.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    setup.host_row[static_cast<std::size_t>(v)] = game.host_distance(u, v);

  setup.repair_cap = repair_cap;
  setup.rows.resize(0);
}

bool BrSearchSetup::rows_exact() const {
  return std::none_of(rows.frontier.begin(), rows.frontier.end(),
                      [](double frontier) { return frontier < kInf; });
}

void BrSearchSetup::build_rows(const AgentEnvironment& env,
                               std::size_t count) {
  build_improvement_rows(env, candidates, weights, base, repair_cap,
                         std::min(count, candidates.size()), rows);
}

std::size_t BrSearchSetup::footprint_bytes() const {
  return candidates.capacity() * sizeof(int) +
         (weights.capacity() + weight_row.capacity() + base.capacity() +
          host_row.capacity()) *
             sizeof(double) +
         rows.footprint_bytes() +
         order.capacity() * sizeof(std::pair<double, int>);
}

void build_improvement_rows(const AgentEnvironment& env,
                            const std::vector<int>& targets,
                            const std::vector<double>& weights,
                            const std::vector<double>& base,
                            std::size_t repair_cap, std::size_t count,
                            ImprovementRows& rows) {
  GNCG_DASSERT(count <= targets.size() && count <= weights.size());
  const std::size_t built = rows.size();
  if (count <= built) return;
  rows.resize(count);
  FrontierPolicy policy;
  policy.node_cap = repair_cap;
  parallel_for(built, count, [&](std::size_t i) {
    IncrementalSssp& builder = worker_arena().incremental_sssp();
    builder.reset(base);
    const RepairOutcome outcome = builder.append_improvement_row(
        targets[i], weights[i], policy,
        [&](int x, auto&& visit) { env.for_neighbors(x, visit); },
        rows.entries[i]);
    if (outcome.truncated) rows.frontier[i] = outcome.frontier_min;
    GNCG_COUNT(kBrRowBuilds);
    GNCG_COUNT_N(kBrRowEntries, rows.entries[i].size());
  });
}

void br_search_sum(const AgentEnvironment& env,
                   const BestResponseOptions& options,
                   BestResponseResult& result) {
  prepare_and_run<SumCostModel>(env, options, result);
}

void br_search_sum(const AgentEnvironment& env, BrSearchSetup& setup,
                   double incumbent, BestResponseResult& result) {
  run_search<SumCostModel>(env, setup, incumbent, /*first_improvement=*/false,
                           result);
}

BestResponseResult br_search_sum(const AgentEnvironment& env,
                                 const BestResponseOptions& options) {
  BestResponseResult result;
  br_search_sum(env, options, result);
  return result;
}

BestResponseResult br_search_max(const AgentEnvironment& env,
                                 const BestResponseOptions& options) {
  BestResponseResult result;
  prepare_and_run<MaxCostModel>(env, options, result);
  return result;
}

}  // namespace gncg
