#include "core/deviation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/transposition.hpp"
#include "graph/dijkstra.hpp"
#include "support/arena.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"

namespace gncg {

namespace {

/// Distance sum from `source` via the arena's sum-scratch vector (increasing
/// index order, same as summing a run_into result).
template <class NeighborFn>
double arena_sssp_sum(int n, int source, int dial_bound,
                      NeighborFn&& neighbor_fn) {
  ScratchArena& arena = worker_arena();
  std::vector<double>& dist = arena.sum_dist();
  arena.sssp_into(dist, n, source, dial_bound,
                  std::forward<NeighborFn>(neighbor_fn));
  double total = 0.0;
  for (double d : dist) total += d;
  return total;
}

/// Addition sums A_k = sum_t min(du[t], w[k] + dx[k][t]) of K targets in one
/// pass over t.  Accumulator k performs exactly the single-target loop's
/// operation sequence (one add per t, increasing t), so every sum is bitwise
/// equal to a K = 1 pass.
template <int K>
void addition_sums(const std::vector<double>& du, const double* const* dx,
                   const double* w, double* out) {
  double total[K] = {};
  for (std::size_t t = 0; t < du.size(); ++t) {
    const double d = du[t];
    for (int k = 0; k < K; ++k) total[k] += std::min(d, w[k] + dx[k][t]);
  }
  for (int k = 0; k < K; ++k) out[k] = total[k];
}

/// Flushes a scan's work counters once, from stack locals, on every exit.
struct ScanCounters {
  std::uint64_t sums = 0;
  std::uint64_t prunes = 0;
  ~ScanCounters() {
    GNCG_COUNT_N(kEngineScanSums, sums);
    GNCG_COUNT_N(kEngineScanFloorPrunes, prunes);
  }
};

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
    worker_arena().sssp_into(cache.dist, game_->node_count(), u, dial_bound_,
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
  detail::SsspQueue& queue = rs.queue;
  queue.clear();
  const auto relax = [&](int y, double cand) {
    if (!(cand < d[idx(y)])) return;
    ++relaxations;
    d[idx(y)] = cand;
    queue.push(cand, y);
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
  while (!queue.empty()) {
    const auto [dx, x] = queue.pop();
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
  if (warm_epoch_ == epoch_) return;
  const int n = game_->node_count();
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t u) {
    if (caches_[u].epoch != epoch_) ensure(static_cast<int>(u));
  });
  warm_epoch_ = epoch_;
}

void DeviationEngine::warm_for_scan() {
  if (warm_epoch_ == epoch_) return;
  // Repairs run here, leaving each row in this core's cache for the scan
  // that reads it next; full refills (one Dijkstra each) fan out.  The
  // serial repairs beat a pooled pass where they were measured: n <= 256
  // with one move between warms (perfbench's dynamics round-robin and
  // br_certify settles).  Larger n, or many logged edits per warm, has not
  // been measured.
  std::vector<int> refills;
  const int n = game_->node_count();
  for (int u = 0; u < n; ++u) {
    const std::uint64_t row_epoch = caches_[idx(u)].epoch;
    if (row_epoch == epoch_) continue;
    if (row_epoch >= log_floor_) ensure(u);
    else refills.push_back(u);
  }
  parallel_for(0, refills.size(), [&](std::size_t i) { ensure(refills[i]); });
  warm_epoch_ = epoch_;
}

const std::vector<double>& DeviationEngine::distances(int u) {
  return ensure(u).dist;
}

double DeviationEngine::distance_cost(int u) { return ensure(u).dist_sum; }

double DeviationEngine::distance_cost_warm(int u) const {
  return warmed(u).dist_sum;
}

double DeviationEngine::strategy_weight(int u, const std::vector<double>& w,
                                        int remove, int add) const {
  double total = 0.0;
  bool added = add < 0;
  const double add_weight = add >= 0 ? w[idx(add)] : 0.0;
  profile_.strategy(u).for_each([&](int v) {
    if (v == remove) return;
    if (!added && add < v) {
      total += add_weight;
      added = true;
    }
    total += w[idx(v)];
  });
  if (!added) total += add_weight;
  return total;
}

double DeviationEngine::buying_cost(int u) const {
  return gncg::buying_cost(*game_, profile_, u);
}

double DeviationEngine::agent_cost(int u) {
  return buying_cost(u) + distance_cost(u);
}

double DeviationEngine::agent_cost_warm(int u) const {
  return buying_cost(u) + distance_cost_warm(u);
}

double DeviationEngine::addition_distance_cost(int u, int x) {
  const double* dx[1] = {ensure(x).dist.data()};
  const double w[1] = {game_->weight(u, x)};
  double total = 0.0;
  addition_sums<1>(ensure(u).dist, dx, w, &total);
  return total;
}

// Soundness of the floor.  Write d for exact shortest-path distances in the
// built network G, du/dx for the cached rows, S = S_u for u's cached sum,
// g = max(0, fl(du[x] - w)), u_r = eps/2 for the unit roundoff and
// c_k = k u_r / (1 - k u_r) for the recursive-summation constant.
//  * A cached entry is some real path's length summed in floating point
//    (at most n - 1 rounded adds), and no more than the shortest path's
//    rounded sum: (1 - c) d <= row <= (1 + c) d with c = c_{n-1}.
//  * Triangle inequality in G, d_x(t) >= d_u(t) - d_u(x), so
//    dx[t] >= (1 - c) d_x(t) >= du[t] (1 - c)/(1 + c) - du[x]
//          >= du[t] - du[x] - 2c du[t],
//    i.e. w + dx[t] >= du[t] - (du[x] - w) - 2c du[t].  Hence
//    min(du[t], w + dx[t]) >= du[t] - g' - 2c du[t] for t != u, with
//    g' = max(0, du[x] - w) <= g + u_r du[x]; the t = u term is exactly 0.
//  * fl(w + dx[t]) loses at most u_r of its value, and the term is at most
//    du[t], so each computed term is >= du[t] - g' - (2c + u_r) du[t].
//  * Summing n non-negative terms bounded by du[t] loses at most
//    c_{n-1} sum du, and sum du >= S (1 - c_{n-1}) by the same bound on S.
//  Together: computed A(x) >= S - (n-1) g - (4 c + u_r) S - (n-1) u_r du[x]
//  up to O(n^2 u_r^2) terms, i.e. >= S - (n-1) g - 2 n eps S - n eps du[x].
//  Evaluating the floor itself rounds three operations on magnitudes below
//  S + n du[x] + slack.  slack = 4 n eps (S + n du[x]) covers all of it with
//  a factor-of-two margin, so the computed floor never exceeds the computed
//  sum.  Because fl(a + b) is monotone in each argument and `improves` is
//  monotone in its candidate, a candidate whose edge cost plus floor cannot
//  improve could never have improved with its real sum either.  (Distances
//  are assumed normal numbers; subnormal distance sums do not occur.)
double DeviationEngine::addition_floor(double dist_sum, double dist_to_x,
                                       double weight, int n) {
  if (!(dist_sum < kInf)) return -kInf;  // u disconnected: never prune
  const double nodes = static_cast<double>(n);
  const double gain = std::max(0.0, dist_to_x - weight);
  const double slack = 4.0 * nodes * std::numeric_limits<double>::epsilon() *
                       (dist_sum + nodes * dist_to_x);
  return dist_sum - (nodes - 1.0) * gain - slack;
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
    int u, int x, double w, const std::vector<char>& u_side) const {
  // Deleting bridge (u,v) splits the network into the side reachable from u
  // (u_side) and the rest; distances within each side are untouched, and
  // after adding (u,x) every far-side node t is reached as u -> x ~> t.
  const auto& du = warmed(u).dist;
  const auto& dx = warmed(x).dist;
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
  ScanCounters counters;
  // Arena-backed scratch, owned by the calling worker so parallel warm
  // scans never collide: u's host weights, read once (w[u] = kInf makes
  // `w[x] < kInf` the can_buy test), and the addition-sum memo.
  ScratchArena& arena = worker_arena();
  std::vector<double>& w = arena.scan_weights();
  w.resize(static_cast<std::size_t>(n));
  for (int x = 0; x < n; ++x) w[idx(x)] = x == u ? kInf : game_->weight(u, x);
  std::vector<double>& memo = arena.scan_memo();
  memo.assign(static_cast<std::size_t>(n),
              std::numeric_limits<double>::quiet_NaN());

  SingleMoveResult result;
  result.current_cost = alpha * strategy_weight(u, w, -1, -1) + cu.dist_sum;
  result.cost = result.current_cost;

  const auto consider = [&](MoveType type, int remove, int add, double cost) {
    if (improves(cost, result.cost)) {
      result.cost = cost;
      result.move = {type, remove, add};
      result.improved = true;
    }
  };
  const auto memoized = [&](int x) { return !std::isnan(memo[idx(x)]); };
  // True when even the O(1) floor of A(x) cannot make a candidate of this
  // edge cost beat the incumbent: A(x) is then never computed.
  const auto floor_skips = [&](double edge_cost, int x) {
    return !improves(
        edge_cost + addition_floor(cu.dist_sum, cu.dist[idx(x)], w[idx(x)], n),
        result.cost);
  };
  // A(x) = sum_t min(d(u,t), w(u,x) + d(x,t)) for a target x with no built
  // edge (u,x), computed at most once per scan.  On a miss a full scan also
  // fills up to three later targets the calling loop will ask for
  // (`wanted`) in the same pass over t; early-exit scans fill one at a time
  // so they stop at the same first improver.
  const auto addition_sum = [&](int x, auto&& wanted) {
    if (memoized(x)) return memo[idx(x)];
    int batch[4] = {x, 0, 0, 0};
    int k = 1;
    if (!early_exit)
      for (int y = x + 1; y < n && k < 4; ++y)
        if (!memoized(y) && wanted(y)) batch[k++] = y;
    const double* rows[4] = {};
    double weights[4] = {};
    double sums[4] = {};
    for (int i = 0; i < k; ++i) {
      rows[i] = warmed(batch[i]).dist.data();
      weights[i] = w[idx(batch[i])];
    }
    switch (k) {
      case 1: addition_sums<1>(cu.dist, rows, weights, sums); break;
      case 2: addition_sums<2>(cu.dist, rows, weights, sums); break;
      case 3: addition_sums<3>(cu.dist, rows, weights, sums); break;
      default: addition_sums<4>(cu.dist, rows, weights, sums); break;
    }
    for (int i = 0; i < k; ++i) memo[idx(batch[i])] = sums[i];
    counters.sums += static_cast<std::uint64_t>(k);
    return memo[idx(x)];
  };

  if (flags.adds) {
    const auto addable = [&](int x) {
      return w[idx(x)] < kInf && !profile_.has_edge(u, x);
    };
    const auto add_edge_cost = [&](int x) {
      return alpha * strategy_weight(u, w, -1, x);
    };
    const auto wanted = [&](int y) {
      return addable(y) && !floor_skips(add_edge_cost(y), y);
    };
    for (int x = 0; x < n; ++x) {
      if (!addable(x)) continue;
      const double edge_cost = add_edge_cost(x);
      if (!memoized(x) && floor_skips(edge_cost, x)) {
        ++counters.prunes;
        continue;
      }
      consider(MoveType::kAdd, -1, x, edge_cost + addition_sum(x, wanted));
      if (early_exit && result.improved) return result;
    }
  }

  if (flags.deletes || flags.swaps) {
    // The owned-target list replaces a per-scan to_vector() allocation, the
    // side-mark buffer a per-scan vector.
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
                   alpha * strategy_weight(u, w, v, -1) + cu.dist_sum);
        } else if (!bridge) {
          // Removing an edge cannot shrink any distance, so the current
          // distance sum is an admissible bound: run Dijkstra only when the
          // alpha saving alone could beat the incumbent.
          const double edge_cost = alpha * strategy_weight(u, w, v, -1);
          if (improves(edge_cost + cu.dist_sum, result.cost)) {
            consider(MoveType::kDelete, v, -1,
                     edge_cost + masked_distance_cost(u, v, -1));
          }
        }
        // Deleting a bridge disconnects u: cost kInf, never improving.
        if (early_exit && result.improved) return result;
      }

      if (flags.swaps) {
        // Swapping to an already-present edge is dominated by the plain
        // deletion, so such x are skipped when deletions are in the move
        // set; swap-only scans must consider them (see scan semantics in
        // best_response.cpp).  Past a deleted bridge, targets on u's side
        // leave u disconnected (kInf).
        const auto swap_target = [&](int x) {
          if (x == v || !(w[idx(x)] < kInf)) return false;
          if (flags.deletes ? profile_.has_edge(u, x)
                            : profile_.strategy(u).contains(x))
            return false;
          return !bridge || u_side[idx(x)] == 0;
        };
        const auto swap_edge_cost = [&](int x) {
          return alpha * strategy_weight(u, w, v, x);
        };
        const auto wanted = [&](int y) {
          return swap_target(y) && !profile_.has_edge(u, y) &&
                 !floor_skips(swap_edge_cost(y), y);
        };
        for (int x = 0; x < n; ++x) {
          if (!swap_target(x)) continue;
          const bool duplicate = profile_.has_edge(u, x);
          const double edge_cost = swap_edge_cost(x);
          // Every swap's distance sum is at least A(x) (or S_u for a
          // duplicate): the doubly-owned swap is the pure addition; a
          // bridge swap's terms are each one of A(x)'s two min arguments,
          // and an in-order floating-point sum is monotone in each term;
          // a non-bridge deletion cannot shrink any distance of G + (u,x).
          if (!duplicate && !memoized(x) && floor_skips(edge_cost, x)) {
            ++counters.prunes;
            continue;
          }
          const double dist_bound =
              duplicate ? cu.dist_sum : addition_sum(x, wanted);
          double cost;
          if (doubly) {
            cost = edge_cost + dist_bound;
          } else {
            if (!improves(edge_cost + dist_bound, result.cost)) continue;
            if (bridge) {
              ++counters.sums;
              cost = edge_cost + bridge_swap_distance_cost(u, x, w[idx(x)],
                                                           u_side);
            } else {
              cost = edge_cost + masked_distance_cost(u, v, x);
            }
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
  warm_for_scan();
  return scan_moves(u, {true, true, true}, false);
}

SingleMoveResult DeviationEngine::best_addition(int u) {
  warm_for_scan();
  return scan_moves(u, {true, false, false}, false);
}

SingleMoveResult DeviationEngine::best_swap(int u) {
  warm_for_scan();
  return scan_moves(u, {false, false, true}, false);
}

bool DeviationEngine::has_improving_single_move(int u) {
  warm_for_scan();
  return scan_moves(u, {true, true, true}, true).improved;
}

bool DeviationEngine::has_improving_addition(int u) {
  warm_for_scan();
  return scan_moves(u, {true, false, false}, true).improved;
}

bool DeviationEngine::has_improving_swap(int u) {
  warm_for_scan();
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
