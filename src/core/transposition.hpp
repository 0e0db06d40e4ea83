// Incremental profile hashing and the shared transposition table.
//
// Dynamics cycle detection answers the same question every round: "have we
// seen this strategy profile before?"  Answering it by full-profile
// comparison costs O(n^2/64) per round; this module makes the common case
// O(1) and keeps every round's bookkeeping proportional to the moves made:
//
//  * Zobrist-style ownership hashing: every directed ownership fact
//    "u buys (u,v)" has a fixed 64-bit key derived from (u, v) alone (two
//    SplitMix64 rounds -- no O(n^2) key table is ever materialized, which
//    matters on implicit geometric hosts), and a profile's hash is the XOR
//    of the keys of its ownership facts.  XOR makes the hash incrementally
//    maintainable: toggling one ownership fact updates the hash in O(1),
//    which is what DeviationEngine::profile_hash() does under mutations.
//  * TranspositionTable: an exact-confirmation hash index over the states
//    of one trajectory.  It stores no profiles.  It keeps hash buckets of
//    (payload, change-log position) and a change log with one entry per
//    committed move: the mover and its pre-move strategy as a member list.
//    A hash hit is only reported as a revisit after the log suffix since
//    the recorded state proves the current profile equal to it, so a hash
//    collision can never certify a false cycle -- collisions are counted
//    (collisions()) and resolved, never trusted.
//
// Per recorded state the table costs O(1) plus O(|S_mover|) per logged
// move; it never copies a whole profile (O(n^2/64) words on dense sets,
// 12.5 MB per round at n = 10^4).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/game.hpp"

namespace gncg {

/// Zobrist key of the directed ownership fact "u buys the edge (u, v)".
/// Pure function of (u, v): two full SplitMix64 avalanche rounds, so keys of
/// neighbouring pairs are uncorrelated and no key table is stored.
std::uint64_t zobrist_buy_key(int u, int v);

/// XOR of the buy keys of agent u's strategy.
std::uint64_t zobrist_strategy_hash(int u, const NodeSet& strategy);

/// From-scratch Zobrist hash of a whole profile: XOR over every ownership
/// fact.  The reference implementation the incremental maintenance in
/// DeviationEngine is differentially tested against.
std::uint64_t zobrist_profile_hash(const StrategyProfile& profile);

/// Exact-confirmation transposition table over the states of one
/// trajectory.
///
/// The caller walks a trajectory: it logs every committed strategy change
/// with `log_move` (in commit order, with the mover's pre-move strategy)
/// and records states with `insert`; the recorded state is the profile
/// after every move logged so far.  Each recorded state occupies one slot
/// carrying a caller-defined uint64 payload (the move index for cycle
/// detection).  `find` reports a slot only after confirming, from the log
/// suffix since that slot, that the current profile equals the recorded
/// state: for every agent logged in the suffix, its first logged
/// (pre-move) strategy must equal its current strategy; agents absent from
/// the suffix are unchanged by construction.  The table is therefore
/// collision-proof; the number of rejected confirmations (distinct states
/// sharing a hash) is exposed for diagnostics.
class TranspositionTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Appends one committed move to the change log: `agent`'s strategy
  /// before the move.  Agents of one multi-move round are distinct, so each
  /// round logs its movers' pre-round strategies.
  void log_move(int agent, const NodeSet& before);

  /// Slot of a recorded state equal to `profile`, which must be the current
  /// state (the profile after every logged move), or npos.  `hash` must be
  /// zobrist_profile_hash(profile) (callers maintain it incrementally;
  /// confirmed here, never trusted alone).
  std::size_t find(std::uint64_t hash, const StrategyProfile& profile) const;

  /// Records the current state under `hash` with payload `value`; returns
  /// its slot.  Precondition: no equal state is recorded (call find first).
  std::size_t insert(std::uint64_t hash, std::uint64_t value);

  std::uint64_t value(std::size_t slot) const { return slots_[slot].value; }

  /// Number of distinct states recorded.
  std::size_t size() const { return slots_.size(); }

  /// Rejected confirmations so far: comparisons where two *distinct*
  /// states shared a bucket hash.
  std::uint64_t collisions() const { return collisions_; }

 private:
  struct Slot {
    std::uint64_t value = 0;
    std::size_t log_pos = 0;  ///< log size when the state was recorded
  };
  struct LogEntry {
    int agent = 0;
    std::size_t begin = 0;  ///< pre-move members: members_[begin, next)
  };

  /// Whether the current `profile` equals the state recorded at log
  /// position `log_pos`.
  bool same_state(std::size_t log_pos, const StrategyProfile& profile) const;

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets_;
  std::vector<Slot> slots_;
  std::vector<LogEntry> log_;
  std::vector<int> members_;
  mutable std::uint64_t collisions_ = 0;
  // same_state scratch: seen_[a] == stamp_ marks agents already compared.
  mutable std::vector<std::uint64_t> seen_;
  mutable std::uint64_t stamp_ = 0;
};

}  // namespace gncg
