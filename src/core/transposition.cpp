#include "core/transposition.hpp"

#include "support/instrument.hpp"
#include "support/rng.hpp"

namespace gncg {

namespace {

/// Domain separator so profile hashes do not collide with the stream/hash
/// machinery in support/rng.hpp, which uses the same mixing primitive.
constexpr std::uint64_t kZobristSalt = 0xc3a5c85c97cb3127ULL;

}  // namespace

std::uint64_t zobrist_buy_key(int u, int v) {
  return hash_combine(hash_combine(kZobristSalt,
                                   static_cast<std::uint64_t>(u)),
                      static_cast<std::uint64_t>(v));
}

std::uint64_t zobrist_strategy_hash(int u, const NodeSet& strategy) {
  std::uint64_t h = 0;
  strategy.for_each([&](int v) { h ^= zobrist_buy_key(u, v); });
  return h;
}

std::uint64_t zobrist_profile_hash(const StrategyProfile& profile) {
  std::uint64_t h = 0;
  for (int u = 0; u < profile.node_count(); ++u)
    h ^= zobrist_strategy_hash(u, profile.strategy(u));
  return h;
}

void TranspositionTable::log_move(int agent, const NodeSet& before) {
  log_.push_back({agent, members_.size()});
  before.for_each([&](int v) { members_.push_back(v); });
}

bool TranspositionTable::same_state(std::size_t log_pos,
                                    const StrategyProfile& profile) const {
  seen_.resize(static_cast<std::size_t>(profile.node_count()), 0);
  ++stamp_;
  for (std::size_t i = log_pos; i < log_.size(); ++i) {
    const int agent = log_[i].agent;
    auto& seen = seen_[static_cast<std::size_t>(agent)];
    if (seen == stamp_) continue;  // only the first entry is the old state
    seen = stamp_;
    const std::size_t end =
        i + 1 < log_.size() ? log_[i + 1].begin : members_.size();
    std::size_t next = log_[i].begin;
    bool equal = true;
    profile.strategy(agent).for_each([&](int v) {
      if (next < end && members_[next] == v) ++next;
      else equal = false;
    });
    if (!equal || next != end) return false;
  }
  return true;
}

std::size_t TranspositionTable::find(std::uint64_t hash,
                                     const StrategyProfile& profile) const {
  GNCG_COUNT(kTtProbes);
  const auto it = buckets_.find(hash);
  if (it == buckets_.end()) return npos;
  for (std::size_t slot : it->second) {
    GNCG_COUNT(kTtConfirms);
    if (same_state(slots_[slot].log_pos, profile)) return slot;
    ++collisions_;
    GNCG_COUNT(kTtCollisions);
  }
  return npos;
}

std::size_t TranspositionTable::insert(std::uint64_t hash,
                                       std::uint64_t value) {
  const std::size_t slot = slots_.size();
  slots_.push_back({value, log_.size()});
  buckets_[hash].push_back(slot);
  return slot;
}

}  // namespace gncg
