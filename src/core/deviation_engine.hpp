// Incremental deviation engine: cached game state + delta move evaluation.
//
// Every experiment in the paper (equilibrium checks, best-response dynamics,
// PoA sweeps) reduces to evaluating many candidate deviations against the
// *same* strategy profile.  The naive path pays a full adjacency rebuild and
// a fresh Dijkstra per candidate; this engine amortizes that work:
//
//  * It owns the materialized adjacency of the current StrategyProfile and
//    updates it incrementally under add_buy/remove_buy/apply_move/
//    set_strategy -- no build_adjacency per evaluation.  Ownership changes
//    that do not alter the built topology (double-ownership adds/removes)
//    leave the distance caches valid.
//  * It caches one SSSP distance vector per agent, invalidated lazily via a
//    topology epoch: a mutation bumps the epoch, and each agent's vector is
//    brought up to date only when next queried -- *repaired* from an edge
//    edit log when the log still covers the row's epoch, refilled by one
//    Dijkstra otherwise (see "Row repair" below).
//  * Single-move deviations are evaluated by *delta* where an exact closed
//    form exists, and by a buffer-reusing Dijkstra otherwise:
//      - addition (u,x):  d'(u,t) = min(d(u,t), w(u,x) + d(x,t)) over the
//        cached vectors of u and x -- O(n) per candidate, no Dijkstra;
//      - deleting a *bridge* (and swapping it for (u,x)): the graph splits
//        into the side reachable from u and the rest, and distances on each
//        side are unchanged, so the swap re-costs from cached vectors plus
//        one reachability sweep per owned edge;
//      - all remaining deletes/swaps re-run Dijkstra over a masked view of
//        the engine adjacency with per-worker arena scratch (support/
//        arena.hpp), pruned by the admissible bound "distances cannot
//        shrink when an edge is removed".
//
// Scan work per agent u (scan_moves).  u's host weights are read once into
// an arena row.  The addition sum A(x) = sum_t min(d(u,t), w(u,x) + d(x,t))
// is computed at most once per scan into an arena memo that the add loop
// and every swap branch share: it is the cost of an addition and of a
// doubly-owned swap, and a lower bound on every other swap to x -- a
// non-bridge swap cannot beat G + (u,x), and each term of a bridge swap's
// sum is one of the two arguments of A's min, so the in-order sum is >=
// A(x) bit for bit.  Full scans fill the memo four targets per pass over t
// (one accumulator each, the single-target operation order, so the sums
// are bitwise unchanged); early-exit scans fill it lazily.  Before any sum
// or masked Dijkstra a candidate must pass the O(1) floor
// addition_floor(S_u, d(u,x), w(u,x), n) <= A(x): a candidate whose edge
// cost plus floor cannot improve on the incumbent is skipped, which never
// changes a result because `improves` and rounded addition are monotone.
//
// All SSSP work runs over a flat CSR adjacency slab (graph/csr_adjacency.hpp)
// and draws every scratch buffer from the calling worker's ScratchArena, so
// steady-state move evaluation performs no heap allocation.  On hosts whose
// weights are small integers (unit, 1-2, integer trees) the kernels switch
// from the heap queue to the bucket-queue ("dial") Dijkstra -- distances
// are bit-identical either way.
//
// Scan order and tie-breaking replicate the naive reference scans
// (tests/reference/naive_search.hpp) exactly, so on hosts whose weights sum
// exactly in doubles (unit, 1-2, integer weights) the engine returns
// bit-identical costs and identical moves; on
// real-weighted hosts results agree up to floating-point associativity (see
// tests/test_deviation_engine.cpp for the differential contract).
//
// Invalidation contract (for code building on the engine): every topology
// mutation still bumps the epoch, so `distances(u)` / `distance_cost(u)` /
// `agent_cost(u)` are valid only until the next topology mutation, and
// references returned by `distances`/`adjacency` are invalidated by any
// mutation.  `*_warm` members require a warm pass (`warm_distances()` or
// `warm_for_scan()`) after the last mutation and are const + thread-safe,
// which is what the dynamics scheduler's parallel proposal batching runs
// on.  The engine remembers the epoch of its last warm pass: a warm pass at
// that epoch returns at once, dispatching nothing, and since every topology
// mutation and set_profile bump the epoch, the remembered epoch goes stale
// by itself.  The two passes differ only in where stale rows are brought
// up to date.  `warm_distances()` (batch scans, whose workers all read the
// rows) repairs and refills every stale row over the worker pool.
// `warm_for_scan()` (one agent's scan on the calling thread: the
// single-agent entry points and the sequential schedulers) repairs each
// row the edit log covers on the calling thread and fans out only full
// refills -- never-filled rows, rows after set_profile and rows staler
// than the log.  Either way every row ends bitwise equal to a refill.
//
// Row repair: `link`/`unlink` append every built-topology edge edit,
// stamped with the epoch it bumps to, to a fixed-capacity edit log.  A
// stale row whose epoch the log still covers is repaired lazily inside
// ensure(u) from the edits logged since (Ramalingam-Reps style dynamic
// SSSP): nodes reached from a deleted edge through tight edges
// (fl(d(x) + w) == d(y)) are reset and re-seeded from their unaffected
// neighbours, inserted edges are relaxed, and one decrease-only Dijkstra
// settles both.  The result is the least fixpoint d(t) = min over edges
// (x,t) of fl(d(x) + w) of the current graph, hence bitwise equal to a
// refill.  Rows older than the log, never-filled rows and every row after
// set_profile (which resets the log floor) refill.  Double-ownership
// changes leave the topology alone and log nothing.  Any new
// topology-mutation path must go through link/unlink (or reset the log
// floor), or stale rows would be repaired against a wrong edit set.
//
// The engine also maintains the Zobrist ownership hash of its profile
// (core/transposition.hpp) incrementally: every ownership mutation --
// including double-ownership changes that leave the topology and the
// distance caches untouched -- updates `profile_hash()` in O(1), so
// dynamics cycle detection reads a fingerprint per step instead of
// rehashing the profile.
//
// Host weights are queried per candidate through Game::weight, i.e. the
// host-metric backend (metric/host_backend.hpp): stable, const and
// thread-safe, O(1) on dense hosts and O(d)/O(1) on implicit geometric
// ones -- which is what lets a euclidean n=4096 sweep run without any
// O(n^2) host matrix existing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/game.hpp"
#include "graph/csr_adjacency.hpp"

namespace gncg {

class DeviationEngine {
 public:
  /// Edge edits the log keeps: enough for a parallel-MGM round's batch.  A
  /// row staler than the log refills.
  static constexpr std::size_t kEditLogCapacity = 256;

  /// Takes ownership of `profile` and materializes its adjacency once.
  DeviationEngine(const Game& game, StrategyProfile profile);

  const Game& game() const { return *game_; }
  const StrategyProfile& profile() const { return profile_; }

  /// Zobrist ownership hash of the current profile, maintained O(1) under
  /// every mutation.  Always equals zobrist_profile_hash(profile()).
  std::uint64_t profile_hash() const { return profile_hash_; }

  /// Materialized adjacency of the built network (double ownership collapsed
  /// into one undirected entry), stored as a flat CSR slab so SSSP inner
  /// loops traverse contiguous memory.  Spans/references into it are
  /// invalidated by any mutation (entries may relocate).
  const CsrAdjacency& adjacency() const { return adjacency_; }

  /// True when this engine's SSSP kernels use the bucket-queue (dial) path
  /// (integer-weight host within the dial gate; see
  /// HostGraph::dial_weight_bound).
  bool dial_enabled() const { return dial_bound_ > 0; }

  /// Forces the heap-queue Dijkstra path even on integer-weight hosts.
  /// Bench/test knob (dial-vs-heap comparisons); distances are bit-identical
  /// either way, so this never changes results.
  void disable_dial() { dial_bound_ = 0; }

  // --- mutations (incremental adjacency, lazy cache invalidation) ---

  void add_buy(int u, int v);
  void remove_buy(int u, int v);
  void set_strategy(int u, NodeSet strategy);
  void apply_move(int u, const SingleMove& move);

  /// Batched apply for round-commit dynamics (the parallel-MGM scheduler):
  /// replaces each listed agent's strategy in input order, bumping the
  /// topology epoch at most once for the whole batch instead of once per
  /// changed edge.  Agents must be distinct; the resulting profile,
  /// adjacency and Zobrist hash equal a sequence of set_strategy calls.
  void set_strategies(const std::vector<std::pair<int, NodeSet>>& moves);

  /// Conservative conflict set of "u plays `next`": u itself plus every
  /// endpoint of u's current and proposed strategies -- the nodes whose
  /// incident built edges (and hence SSSP rows) the move may touch.  Two
  /// moves with disjoint conflict sets commute: neither edits an edge the
  /// other reads or writes.  Appends ids to `out` sorted and deduplicated.
  void move_conflict_set(int u, const NodeSet& next,
                         std::vector<int>& out) const;

  /// Replaces the whole profile (full rebuild; for dynamics restarts).
  void set_profile(StrategyProfile profile);

  // --- cached state queries (compute on first use after a mutation) ---

  /// SSSP distance vector of agent u in the built network.
  const std::vector<double>& distances(int u);

  /// Sum of agent u's distances (kInf when disconnected).
  double distance_cost(int u);

  /// alpha * total weight of u's bought edges (recomputed per call in the
  /// same summation order as the naive path; cheap).
  double buying_cost(int u) const;

  /// cost(u, G(s)) = buying_cost(u) + distance_cost(u).
  double agent_cost(int u);

  /// Batch warm: brings every agent's distance row to the current epoch,
  /// repairing and refilling stale rows over the worker pool.  Returns at
  /// once when the engine is already warm at the current epoch.
  void warm_distances();

  /// Single-scan warm: the same rows as warm_distances(), but rows the edit
  /// log covers are repaired on the calling thread, where the scan that
  /// follows reads them; only full refills fan out over the pool.
  void warm_for_scan();

  // --- move evaluation ---

  /// Distance cost of agent u after buying the extra edge (u,x), from the
  /// cached vectors of u and x: sum_t min(d(u,t), w(u,x) + d(x,t)).
  double addition_distance_cost(int u, int x);

  /// O(1) floor on the addition sum A(x) that addition_distance_cost(u, x)
  /// computes, from u's distance sum S_u, u's distance to x and w(u,x):
  /// S_u - (n-1) max(0, d(u,x) - w(u,x)) - slack.  The triangle inequality
  /// d(x,t) >= d(u,t) - d(u,x) bounds every term, and the slack covers the
  /// rounding of the cached rows and of both sums, so the floor is <= the
  /// computed sum in floating point (derivation at the definition).  -kInf
  /// when S_u is infinite (never prunes).
  static double addition_floor(double dist_sum, double dist_to_x,
                               double weight, int n);

  /// Best single move / addition / swap of agent u.  Same semantics, scan
  /// order and tie-breaking as the naive reference scans.
  SingleMoveResult best_single_move(int u);
  SingleMoveResult best_addition(int u);
  SingleMoveResult best_swap(int u);

  /// Early-exit existence checks (equilibrium predicates): true when some
  /// move of the family strictly improves u's cost.
  bool has_improving_single_move(int u);
  bool has_improving_addition(int u);
  bool has_improving_swap(int u);

  // --- warm (const, thread-safe) variants for parallel proposal batching.
  // Require a warm pass after the last mutation. ---

  double distance_cost_warm(int u) const;
  double agent_cost_warm(int u) const;

  /// Warmed SSSP row of agent u in the built network (the vector behind
  /// distance_cost_warm).  The batched certifier feeds this to the ladder's
  /// current-network floor (ApproxBrOptions::current_dist) without paying a
  /// fresh Dijkstra.  Invalidated by any mutation, like distances().
  const std::vector<double>& distances_warm(int u) const {
    return warmed(u).dist;
  }
  SingleMoveResult best_single_move_warm(int u) const;
  SingleMoveResult best_addition_warm(int u) const;
  SingleMoveResult best_swap_warm(int u) const;

  /// cost(u) if u plays exactly `targets` (everyone else fixed): Dijkstra
  /// over the engine adjacency with u's sole-owned edges masked and the
  /// target edges added, using the worker arena.  Const and thread-safe.
  double cost_of_strategy(int u, const NodeSet& targets) const;

 private:
  /// One built-topology edge edit, stamped with the epoch it bumps the
  /// engine to.
  struct EdgeEdit {
    std::uint64_t stamp = 0;
    int a = 0;
    int b = 0;
    double weight = 0.0;
    bool inserted = false;
  };

  struct AgentCache {
    std::vector<double> dist;
    double dist_sum = 0.0;
    std::uint64_t epoch = 0;  ///< topology epoch the row is valid at
  };

  struct ScanFlags {
    bool adds = false;
    bool deletes = false;
    bool swaps = false;
  };

  std::size_t idx(int u) const { return static_cast<std::size_t>(u); }

  /// True when the built edge (u,t) exists only because u buys it (removing
  /// u's buy removes the edge).
  bool solely_owned(int u, int t) const {
    return profile_.buys(u, t) && !profile_.buys(t, u);
  }

  /// Inserts / removes the undirected adjacency entry for (a, b) and logs
  /// the edit, stamped with the epoch the caller is about to bump to.
  void link(int a, int b);
  void unlink(int a, int b);
  void log_edit(int a, int b, double w, bool inserted);

  /// set_strategy body without the per-edge epoch bumps: updates ownership,
  /// hash and adjacency, and returns whether the built topology changed
  /// (the caller decides how many epoch bumps the batch pays).
  bool replace_strategy_edges(int u, const NodeSet& next);

  /// alpha-free total weight of (S_u \ {remove}) ∪ {add} summed in
  /// increasing-target order (exactly the naive NodeSet::for_each order, so
  /// integer-weight hosts match the naive path bit-for-bit), reading u's
  /// host weights from the row `w`.  Pass -1 to skip either part; `add`
  /// must not already be in S_u.
  double strategy_weight(int u, const std::vector<double>& w, int remove,
                         int add) const;

  const AgentCache& warmed(int u) const;
  const AgentCache& ensure(int u);

  /// Brings agent u's stale row (epoch >= log_floor_) up to the current
  /// epoch from the logged edits; bitwise equal to a refill.
  void repair(int u, AgentCache& cache) const;

  /// Marks the nodes reachable from u in the built network minus edge (u,v)
  /// into `mark`; returns true when v is still reachable (the edge is not a
  /// bridge).
  bool mark_reachable_without(int u, int v, std::vector<char>& mark) const;

  /// Distance cost of u after swapping bridge (u,v) for (u,x) of weight w:
  /// cached u-side distances plus w + cached x-distances on the far side.
  double bridge_swap_distance_cost(int u, int x, double w,
                                   const std::vector<char>& u_side) const;

  /// Dijkstra distance cost of u with edge (u,remove) masked out of the
  /// adjacency and, when add >= 0, edge (u,add) visited additionally.
  double masked_distance_cost(int u, int remove, int add) const;

  /// Shared single-move scan (const: caches must be warm).  With
  /// `early_exit` the scan stops at the first improving candidate.
  SingleMoveResult scan_moves(int u, const ScanFlags& flags,
                              bool early_exit) const;

  /// Refills adjacency_ from profile_ with the two-pass CSR rebuild
  /// (replicates build_adjacency's double-ownership collapse and per-node
  /// entry order exactly).
  void rebuild_adjacency();

  const Game* game_;
  StrategyProfile profile_;
  CsrAdjacency adjacency_;
  std::vector<AgentCache> caches_;
  std::uint64_t epoch_ = 1;
  /// Epoch of the last warm pass; every row is current while it equals
  /// epoch_.
  std::uint64_t warm_epoch_ = 0;
  /// Ring of the last kEditLogCapacity edge edits (edit i at slot
  /// i % capacity); edits_logged_ counts every edit ever appended.
  std::vector<EdgeEdit> edit_log_;
  std::uint64_t edits_logged_ = 0;
  /// Rows at an epoch >= log_floor_ are covered by the log: every edit
  /// stamped after their epoch is still in the ring.
  std::uint64_t log_floor_ = 1;
  std::uint64_t profile_hash_ = 0;
  int dial_bound_ = 0;  ///< bucket-queue weight bound; 0 = use the heap
};

}  // namespace gncg
