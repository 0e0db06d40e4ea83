#include "core/deviation_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/transposition.hpp"
#include "graph/dijkstra.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

/// SSSP from `source` into `dist` with the calling worker's arena, selecting
/// the bucket-queue kernel when the engine certified an integer bound.
template <class NeighborFn>
void arena_sssp(std::vector<double>& dist, int n, int source, int dial_bound,
                NeighborFn&& neighbor_fn) {
  ScratchArena& arena = worker_arena();
  if (dial_bound > 0) {
    arena.dial().run_into(dist, n, source, dial_bound,
                          std::forward<NeighborFn>(neighbor_fn));
  } else {
    arena.dijkstra().run_into(dist, n, source,
                              std::forward<NeighborFn>(neighbor_fn));
  }
}

/// Distance sum from `source` via the arena's sum-scratch vector (increasing
/// index order, same as summing a run_into result).
template <class NeighborFn>
double arena_sssp_sum(int n, int source, int dial_bound,
                      NeighborFn&& neighbor_fn) {
  std::vector<double>& dist = worker_arena().sum_dist();
  arena_sssp(dist, n, source, dial_bound,
             std::forward<NeighborFn>(neighbor_fn));
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

}  // namespace

DeviationEngine::DeviationEngine(const Game& game, StrategyProfile profile)
    : game_(&game), profile_(std::move(profile)) {
  GNCG_CHECK(profile_.node_count() == game.node_count(),
             "profile/game size mismatch");
  rebuild_adjacency();
  caches_.resize(static_cast<std::size_t>(game.node_count()));
  edit_log_.resize(kEditLogCapacity);
  profile_hash_ = zobrist_profile_hash(profile_);
  dial_bound_ = game.host().dial_weight_bound();
}

void DeviationEngine::rebuild_adjacency() {
  // Two passes over the profile in the exact traversal order of
  // build_adjacency: a doubly-owned edge is emitted once, by the
  // smaller-index owner, so per-node entry order matches the vector-of-
  // vectors reference builder entry for entry.
  const int n = game_->node_count();
  adjacency_.begin_rebuild(n);
  for (int u = 0; u < n; ++u) {
    profile_.strategy(u).for_each([&](int v) {
      if (v < u && profile_.buys(v, u)) return;
      adjacency_.count_half(u);
      adjacency_.count_half(v);
    });
  }
  adjacency_.finish_counts();
  for (int u = 0; u < n; ++u) {
    profile_.strategy(u).for_each([&](int v) {
      if (v < u && profile_.buys(v, u)) return;
      const double w = game_->weight(u, v);
      adjacency_.fill_half(u, v, w);
      adjacency_.fill_half(v, u, w);
    });
  }
}

void DeviationEngine::link(int a, int b) {
  const double w = game_->weight(a, b);
  adjacency_.link(a, b, w);
  log_edit(a, b, w, true);
}

void DeviationEngine::unlink(int a, int b) {
  adjacency_.unlink(a, b);
  log_edit(a, b, game_->weight(a, b), false);
}

void DeviationEngine::log_edit(int a, int b, double w, bool inserted) {
  EdgeEdit& slot = edit_log_[edits_logged_ % kEditLogCapacity];
  // Overwriting the oldest edit uncovers every row older than its stamp.
  if (edits_logged_ >= kEditLogCapacity)
    log_floor_ = std::max(log_floor_, slot.stamp);
  slot = {epoch_ + 1, a, b, w, inserted};
  ++edits_logged_;
}

void DeviationEngine::add_buy(int u, int v) {
  GNCG_CHECK(game_->can_buy(u, v), "engine add_buy of a forbidden edge");
  if (profile_.buys(u, v)) return;
  const bool existed = profile_.has_edge(u, v);
  profile_.add_buy(u, v);
  profile_hash_ ^= zobrist_buy_key(u, v);
  // Double-ownership adds do not change the built topology: the adjacency
  // entry already exists and every distance cache stays valid.
  if (!existed) {
    link(u, v);
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::remove_buy(int u, int v) {
  if (!profile_.buys(u, v)) return;
  profile_.remove_buy(u, v);
  profile_hash_ ^= zobrist_buy_key(u, v);
  if (!profile_.has_edge(u, v)) {
    unlink(u, v);
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::set_strategy(int u, NodeSet strategy) {
  GNCG_CHECK(strategy.universe() == game_->node_count(),
             "strategy universe mismatch");
  GNCG_CHECK(!strategy.contains(u), "strategy may not contain the agent");
  const NodeSet old = profile_.strategy(u);
  old.for_each([&](int v) {
    if (!strategy.contains(v)) remove_buy(u, v);
  });
  strategy.for_each([&](int v) {
    if (!old.contains(v)) add_buy(u, v);
  });
}

bool DeviationEngine::replace_strategy_edges(int u, const NodeSet& next) {
  GNCG_CHECK(next.universe() == game_->node_count(),
             "strategy universe mismatch");
  GNCG_CHECK(!next.contains(u), "strategy may not contain the agent");
  bool changed = false;
  const NodeSet old = profile_.strategy(u);
  old.for_each([&](int v) {
    if (next.contains(v)) return;
    profile_.remove_buy(u, v);
    profile_hash_ ^= zobrist_buy_key(u, v);
    if (!profile_.has_edge(u, v)) {
      unlink(u, v);
      changed = true;
    }
  });
  next.for_each([&](int v) {
    if (old.contains(v)) return;
    GNCG_CHECK(game_->can_buy(u, v), "engine add_buy of a forbidden edge");
    const bool existed = profile_.has_edge(u, v);
    profile_.add_buy(u, v);
    profile_hash_ ^= zobrist_buy_key(u, v);
    if (!existed) {
      link(u, v);
      changed = true;
    }
  });
  return changed;
}

void DeviationEngine::set_strategies(
    const std::vector<std::pair<int, NodeSet>>& moves) {
  for (std::size_t i = 0; i < moves.size(); ++i)
    for (std::size_t j = i + 1; j < moves.size(); ++j)
      GNCG_CHECK(moves[i].first != moves[j].first,
                 "set_strategies batch repeats agent " << moves[i].first);
  bool changed = false;
  for (const auto& [u, next] : moves)
    changed = replace_strategy_edges(u, next) || changed;
  if (changed) {
    ++epoch_;
    GNCG_COUNT(kEngineEpochBumps);
  }
}

void DeviationEngine::move_conflict_set(int u, const NodeSet& next,
                                        std::vector<int>& out) const {
  out.clear();
  out.push_back(u);
  profile_.strategy(u).for_each([&](int v) { out.push_back(v); });
  next.for_each([&](int v) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void DeviationEngine::apply_move(int u, const SingleMove& move) {
  switch (move.type) {
    case MoveType::kNone:
      return;
    case MoveType::kAdd:
      add_buy(u, move.add);
      return;
    case MoveType::kDelete:
      remove_buy(u, move.remove);
      return;
    case MoveType::kSwap:
      remove_buy(u, move.remove);
      add_buy(u, move.add);
      return;
  }
}

void DeviationEngine::set_profile(StrategyProfile profile) {
  GNCG_CHECK(profile.node_count() == game_->node_count(),
             "profile/game size mismatch");
  profile_ = std::move(profile);
  rebuild_adjacency();
  profile_hash_ = zobrist_profile_hash(profile_);
  ++epoch_;
  log_floor_ = epoch_;  // the rebuild is not logged: every row refills
  GNCG_COUNT(kEngineEpochBumps);
}

const DeviationEngine::AgentCache& DeviationEngine::ensure(int u) {
  AgentCache& cache = caches_[idx(u)];
  if (cache.epoch == epoch_) {
    GNCG_COUNT(kEngineCacheHits);
    return cache;
  }
  if (cache.epoch >= log_floor_) {
    GNCG_COUNT(kEngineRowRepairs);
    repair(u, cache);
  } else {
    GNCG_COUNT(kEngineCacheMisses);
    arena_sssp(cache.dist, game_->node_count(), u, dial_bound_,
               [&](int y, auto&& visit) {
                 for (const auto& nb : adjacency_.neighbors(y))
                   visit(nb.to, nb.weight);
               });
    double total = 0.0;
    for (double d : cache.dist) total += d;
    cache.dist_sum = total;
  }
  cache.epoch = epoch_;
  return cache;
}

void DeviationEngine::repair(int u, AgentCache& cache) const {
  const int n = game_->node_count();
  ScratchArena::RepairScratch& rs = worker_arena().repair();
  std::vector<double>& d = cache.dist;

  // The edits stamped after the row's epoch (the ring still holds them all:
  // the caller checked cache.epoch >= log_floor_).
  const std::uint64_t oldest =
      edits_logged_ - std::min<std::uint64_t>(edits_logged_, kEditLogCapacity);
  std::uint64_t begin = edits_logged_;
  while (begin > oldest &&
         edit_log_[(begin - 1) % kEditLogCapacity].stamp > cache.epoch)
    --begin;
  const auto for_each_edit = [&](auto&& fn) {
    for (std::uint64_t i = begin; i < edits_logged_; ++i)
      fn(edit_log_[i % kEditLogCapacity]);
  };

  // Deletions.  A node whose old shortest-path tree path crosses a deleted
  // edge is reachable, through tight edges (fl(d(x) + w) == d(y), old
  // values), from the far endpoint of a tight deleted edge; the tree edges
  // past it are tight deleted edges (marked here directly) or edges of the
  // current graph.  Marking that closure leaves every unmarked node a
  // surviving tight path, hence its old distance.  Every logged deletion
  // is checked, including edges later re-added or never in the row's
  // graph: extra marks are conservative.  The source is never marked: its
  // distance is 0 in every graph.
  if (rs.affected_mark.size() != static_cast<std::size_t>(n))
    rs.affected_mark.assign(static_cast<std::size_t>(n), 0);
  rs.affected.clear();
  const auto mark_if_tight = [&](int x, int y, double w) {
    if (y == u || rs.affected_mark[idx(y)] != 0) return;
    if (!(d[idx(x)] < kInf && d[idx(x)] + w == d[idx(y)])) return;
    rs.affected_mark[idx(y)] = 1;
    rs.affected.push_back(y);
  };
  for_each_edit([&](const EdgeEdit& e) {
    if (e.inserted) return;
    mark_if_tight(e.a, e.b, e.weight);
    mark_if_tight(e.b, e.a, e.weight);
  });
  for (std::size_t i = 0; i < rs.affected.size(); ++i) {
    const int x = rs.affected[i];
    for (const auto& nb : adjacency_.neighbors(x))
      mark_if_tight(x, nb.to, nb.weight);
  }

  // Reset the marked nodes and seed each from its unmarked neighbours in
  // the current graph, then offer every logged insertion whose edge is
  // still built, in both directions.  One decrease-only Dijkstra over the
  // current graph settles both: every value it leaves is a real path's
  // rounded length and satisfies every edge constraint, so the row is the
  // current graph's least fixpoint -- bitwise what a refill computes.
  std::uint64_t relaxations = 0;
  std::vector<detail::HeapEntry>& heap = rs.heap;
  heap.clear();
  const auto relax = [&](int y, double cand) {
    if (!(cand < d[idx(y)])) return;
    ++relaxations;
    d[idx(y)] = cand;
    heap.emplace_back(cand, y);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  for (int x : rs.affected) d[idx(x)] = kInf;
  for (int x : rs.affected)
    for (const auto& nb : adjacency_.neighbors(x))
      if (rs.affected_mark[idx(nb.to)] == 0)
        relax(x, d[idx(nb.to)] + nb.weight);
  for_each_edit([&](const EdgeEdit& e) {
    if (!e.inserted || !profile_.has_edge(e.a, e.b)) return;
    relax(e.b, d[idx(e.a)] + e.weight);
    relax(e.a, d[idx(e.b)] + e.weight);
  });
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [dx, x] = heap.back();
    heap.pop_back();
    if (dx > d[idx(x)]) continue;  // stale entry
    for (const auto& nb : adjacency_.neighbors(x)) relax(nb.to, dx + nb.weight);
  }
  GNCG_COUNT_N(kEngineRepairRelaxations, relaxations);

  const bool changed = !rs.affected.empty() || relaxations > 0;
  for (int x : rs.affected) rs.affected_mark[idx(x)] = 0;
  if (!changed) return;  // the row, and so its sum, is bitwise unchanged
  double total = 0.0;
  for (double x : d) total += x;
  cache.dist_sum = total;
}

const DeviationEngine::AgentCache& DeviationEngine::warmed(int u) const {
  const AgentCache& cache = caches_[idx(u)];
  GNCG_CHECK(cache.epoch == epoch_,
             "distance cache of agent " << u
                                        << " is stale; call warm_distances()");
  return cache;
}

void DeviationEngine::warm_distances() {
  const int n = game_->node_count();
  parallel_for(0, static_cast<std::size_t>(n),
               [&](std::size_t u) { ensure(static_cast<int>(u)); });
}

const std::vector<double>& DeviationEngine::distances(int u) {
  return ensure(u).dist;
}

double DeviationEngine::distance_cost(int u) { return ensure(u).dist_sum; }

double DeviationEngine::distance_cost_warm(int u) const {
  return warmed(u).dist_sum;
}

double DeviationEngine::strategy_weight(int u, int remove, int add) const {
  double total = 0.0;
  bool added = add < 0;
  const double add_weight = add >= 0 ? game_->weight(u, add) : 0.0;
  profile_.strategy(u).for_each([&](int v) {
    if (v == remove) return;
    if (!added && add < v) {
      total += add_weight;
      added = true;
    }
    total += game_->weight(u, v);
  });
  if (!added) total += add_weight;
  return total;
}

double DeviationEngine::buying_cost(int u) const {
  return game_->alpha() * strategy_weight(u, -1, -1);
}

double DeviationEngine::agent_cost(int u) {
  return buying_cost(u) + distance_cost(u);
}

double DeviationEngine::agent_cost_warm(int u) const {
  return buying_cost(u) + distance_cost_warm(u);
}

double DeviationEngine::addition_distance_cost(int u, int x) {
  ensure(u);
  ensure(x);
  return addition_distance_cost_warm(u, x);
}

double DeviationEngine::addition_distance_cost_warm(int u, int x) const {
  const auto& du = warmed(u).dist;
  const auto& dx = warmed(x).dist;
  const double w = game_->weight(u, x);
  double total = 0.0;
  for (std::size_t t = 0; t < du.size(); ++t)
    total += std::min(du[t], w + dx[t]);
  return total;
}

bool DeviationEngine::mark_reachable_without(int u, int v,
                                             std::vector<char>& mark) const {
  const int n = game_->node_count();
  mark.assign(static_cast<std::size_t>(n), 0);
  std::vector<int>& stack = worker_arena().dfs_stack();
  stack.clear();
  mark[idx(u)] = 1;
  stack.push_back(u);
  while (!stack.empty()) {
    const int y = stack.back();
    stack.pop_back();
    for (const auto& nb : adjacency_.neighbors(y)) {
      if ((y == u && nb.to == v) || (y == v && nb.to == u)) continue;
      if (!mark[idx(nb.to)]) {
        mark[idx(nb.to)] = 1;
        stack.push_back(nb.to);
      }
    }
  }
  return mark[idx(v)] != 0;
}

double DeviationEngine::bridge_swap_distance_cost(
    int u, int x, const std::vector<char>& u_side) const {
  // Deleting bridge (u,v) splits the network into the side reachable from u
  // (u_side) and the rest; distances within each side are untouched, and
  // after adding (u,x) every far-side node t is reached as u -> x ~> t.
  const auto& du = warmed(u).dist;
  const auto& dx = warmed(x).dist;
  const double w = game_->weight(u, x);
  double total = 0.0;
  for (std::size_t t = 0; t < du.size(); ++t)
    total += u_side[t] != 0 ? du[t] : w + dx[t];
  return total;
}

double DeviationEngine::masked_distance_cost(int u, int remove,
                                             int add) const {
  const double add_weight = add >= 0 ? game_->weight(u, add) : 0.0;
  return arena_sssp_sum(
      game_->node_count(), u, dial_bound_, [&](int y, auto&& visit) {
        for (const auto& nb : adjacency_.neighbors(y)) {
          if ((y == u && nb.to == remove) || (y == remove && nb.to == u))
            continue;
          visit(nb.to, nb.weight);
        }
        if (add >= 0) {
          if (y == u) visit(add, add_weight);
          else if (y == add) visit(u, add_weight);
        }
      });
}

double DeviationEngine::cost_of_strategy(int u, const NodeSet& targets) const {
  double edge_weight = 0.0;
  targets.for_each([&](int v) { edge_weight += game_->weight(u, v); });
  const double dist = arena_sssp_sum(
      game_->node_count(), u, dial_bound_, [&](int y, auto&& visit) {
        for (const auto& nb : adjacency_.neighbors(y)) {
          // Mask u's sole-owned edges: the environment is everyone else's.
          if (y == u && solely_owned(u, nb.to)) continue;
          if (nb.to == u && solely_owned(u, y)) continue;
          visit(nb.to, nb.weight);
        }
        if (y == u) {
          targets.for_each([&](int v) { visit(v, game_->weight(u, v)); });
        } else if (targets.contains(y)) {
          visit(u, game_->weight(u, y));
        }
      });
  return game_->alpha() * edge_weight + dist;
}

SingleMoveResult DeviationEngine::scan_moves(int u, const ScanFlags& flags,
                                             bool early_exit) const {
  const int n = game_->node_count();
  const double alpha = game_->alpha();
  const AgentCache& cu = warmed(u);

  SingleMoveResult result;
  result.current_cost = alpha * strategy_weight(u, -1, -1) + cu.dist_sum;
  result.cost = result.current_cost;

  const auto consider = [&](MoveType type, int remove, int add, double cost) {
    if (improves(cost, result.cost)) {
      result.cost = cost;
      result.move = {type, remove, add};
      result.improved = true;
    }
  };
  // Delta evaluation of an addition from cached vectors; the u-and-x loop
  // below never passes an x whose built edge already exists, so the warmed
  // caches of u and x fully determine the new distances.
  const auto addition_cost = [&](int x) {
    return addition_distance_cost_warm(u, x);
  };

  if (flags.adds) {
    for (int x = 0; x < n; ++x) {
      if (x == u || !game_->can_buy(u, x) || profile_.has_edge(u, x)) continue;
      consider(MoveType::kAdd, -1, x,
               alpha * strategy_weight(u, -1, x) + addition_cost(x));
      if (early_exit && result.improved) return result;
    }
  }

  if (flags.deletes || flags.swaps) {
    // Arena-backed scratch: the owned-target list replaces a per-scan
    // to_vector() allocation, the side-mark buffer a per-scan vector.  Both
    // belong to the calling worker, so parallel warm scans never collide.
    ScratchArena& arena = worker_arena();
    std::vector<int>& owned = arena.owned_targets();
    owned.clear();
    profile_.strategy(u).for_each([&](int v) { owned.push_back(v); });
    std::vector<char>& u_side = arena.side_mark();
    for (int v : owned) {
      // If v buys the edge too, dropping u's payment keeps the topology.
      const bool doubly = profile_.buys(v, u);
      const bool bridge = !doubly && !mark_reachable_without(u, v, u_side);

      if (flags.deletes) {
        if (doubly) {
          consider(MoveType::kDelete, v, -1,
                   alpha * strategy_weight(u, v, -1) + cu.dist_sum);
        } else if (!bridge) {
          // Removing an edge cannot shrink any distance, so the current
          // distance sum is an admissible bound: run Dijkstra only when the
          // alpha saving alone could beat the incumbent.
          const double edge_cost = alpha * strategy_weight(u, v, -1);
          if (improves(edge_cost + cu.dist_sum, result.cost)) {
            consider(MoveType::kDelete, v, -1,
                     edge_cost + masked_distance_cost(u, v, -1));
          }
        }
        // Deleting a bridge disconnects u: cost kInf, never improving.
        if (early_exit && result.improved) return result;
      }

      if (flags.swaps) {
        for (int x = 0; x < n; ++x) {
          if (x == u || x == v || !game_->can_buy(u, x)) continue;
          // Swapping to an already-present edge is dominated by the plain
          // deletion, so such x are skipped when deletions are in the move
          // set; swap-only scans must consider them (see scan semantics in
          // best_response.cpp).
          if (flags.deletes && profile_.has_edge(u, x)) continue;
          if (!flags.deletes && profile_.strategy(u).contains(x)) continue;
          const bool duplicate = profile_.has_edge(u, x);
          const double edge_cost = alpha * strategy_weight(u, v, x);
          double cost;
          if (doubly) {
            // The deleted edge stays built; the swap is a pure addition.
            cost = edge_cost + (duplicate ? cu.dist_sum : addition_cost(x));
          } else if (bridge) {
            if (u_side[idx(x)] != 0) continue;  // still disconnected: kInf
            cost = edge_cost + bridge_swap_distance_cost(u, x, u_side);
          } else {
            // Distances in G - (u,v) + (u,x) are bounded below by distances
            // in G + (u,x) (deleting only hurts), which the cached vectors
            // evaluate in O(n); Dijkstra runs only past that bound.
            const double dist_bound =
                duplicate ? cu.dist_sum : addition_cost(x);
            if (!improves(edge_cost + dist_bound, result.cost)) continue;
            cost = edge_cost + masked_distance_cost(u, v, x);
          }
          consider(MoveType::kSwap, v, x, cost);
          if (early_exit && result.improved) return result;
        }
      }
    }
  }
  return result;
}

SingleMoveResult DeviationEngine::best_single_move(int u) {
  warm_distances();
  return scan_moves(u, {true, true, true}, false);
}

SingleMoveResult DeviationEngine::best_addition(int u) {
  warm_distances();
  return scan_moves(u, {true, false, false}, false);
}

SingleMoveResult DeviationEngine::best_swap(int u) {
  warm_distances();
  return scan_moves(u, {false, false, true}, false);
}

bool DeviationEngine::has_improving_single_move(int u) {
  warm_distances();
  return scan_moves(u, {true, true, true}, true).improved;
}

bool DeviationEngine::has_improving_addition(int u) {
  warm_distances();
  return scan_moves(u, {true, false, false}, true).improved;
}

bool DeviationEngine::has_improving_swap(int u) {
  warm_distances();
  return scan_moves(u, {false, false, true}, true).improved;
}

SingleMoveResult DeviationEngine::best_single_move_warm(int u) const {
  return scan_moves(u, {true, true, true}, false);
}

SingleMoveResult DeviationEngine::best_addition_warm(int u) const {
  return scan_moves(u, {true, false, false}, false);
}

SingleMoveResult DeviationEngine::best_swap_warm(int u) const {
  return scan_moves(u, {false, false, true}, false);
}

}  // namespace gncg
