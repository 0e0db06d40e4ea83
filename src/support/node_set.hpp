// NodeSet: a compact dynamic bitset over node indices.
//
// Strategy sets (the S_u of the paper) and edge-membership masks are sets of
// node indices.  Two storage modes behind one API:
//
//  * dense (universe <= kDenseUniverseLimit): 64-bit words with
//    cache-friendly iteration -- O(1) membership, the historical layout;
//  * sparse (universe > kDenseUniverseLimit): only the *nonzero* words,
//    kept as a sorted (word index, word) list.  Strategy sets at the
//    large-n geometric tier hold a handful of targets out of 10^5..10^6
//    nodes; storing them densely would make one StrategyProfile
//    Theta(n^2 / 8) bytes (125 GB at n = 10^6), while the sparse form is
//    O(n * deg) across a profile.  Membership is a binary search over the
//    member words (the list length is ~|S|, so effectively O(log |S|)).
//
// The mode is a pure function of the universe, so sets that can meet in
// operator== always share a representation.  Iteration (for_each) visits
// members in increasing order in both modes -- the canonical-evaluation
// order every cost summation depends on.  Popcount-based cardinality and a
// mixing hash (used by the dynamics engine for cycle detection) work on
// either form; hashes are only ever compared between sets of the same
// universe, hence the same mode.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace gncg {

/// Fixed-universe dynamic bitset over {0, ..., universe-1}.
class NodeSet {
 public:
  /// Largest universe stored densely: 64 Ki nodes = 8 KiB of words.  Every
  /// pre-existing workload (n up to a few thousand) stays on the dense
  /// layout bit-for-bit; only the large-n geometric tier crosses over.
  static constexpr int kDenseUniverseLimit = 1 << 16;

  NodeSet() = default;

  /// Creates an empty set over a universe of `universe` node indices.
  explicit NodeSet(int universe) : universe_(universe) {
    GNCG_CHECK(universe >= 0, "NodeSet universe must be non-negative");
    if (!sparse())
      words_.assign(static_cast<std::size_t>((universe + 63) / 64), 0);
  }

  /// Number of node indices the set ranges over (not the cardinality).
  int universe() const { return universe_; }

  bool contains(int v) const {
    GNCG_DASSERT(in_range(v));
    if (sparse()) {
      const auto it = find_word(word_index(v));
      return it != sparse_words_.end() && it->first == word_index(v) &&
             ((it->second >> (static_cast<unsigned>(v) & 63U)) & 1U);
    }
    return (words_[static_cast<std::size_t>(v) >> 6] >>
            (static_cast<unsigned>(v) & 63U)) &
           1U;
  }

  void insert(int v) {
    GNCG_DASSERT(in_range(v));
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<unsigned>(v) & 63U);
    if (sparse()) {
      const auto it = find_word(word_index(v));
      if (it != sparse_words_.end() && it->first == word_index(v)) {
        it->second |= bit;
      } else {
        sparse_words_.insert(it, {word_index(v), bit});
      }
      return;
    }
    words_[static_cast<std::size_t>(v) >> 6] |= bit;
  }

  void erase(int v) {
    GNCG_DASSERT(in_range(v));
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<unsigned>(v) & 63U);
    if (sparse()) {
      const auto it = find_word(word_index(v));
      if (it == sparse_words_.end() || it->first != word_index(v)) return;
      it->second &= ~bit;
      // Canonical form: no zero words, so equality/hash are functions of
      // the member set alone.
      if (it->second == 0) sparse_words_.erase(it);
      return;
    }
    words_[static_cast<std::size_t>(v) >> 6] &= ~bit;
  }

  void clear() {
    sparse_words_.clear();
    for (auto& w : words_) w = 0;
  }

  /// Empties the set and re-targets it at `universe`, keeping the storage:
  /// the allocation-free form of `*this = NodeSet(universe)` for buffers
  /// recycled across calls.
  void reset(int universe) {
    GNCG_CHECK(universe >= 0, "NodeSet universe must be non-negative");
    universe_ = universe;
    sparse_words_.clear();
    if (sparse()) {
      words_.clear();
    } else {
      words_.assign(static_cast<std::size_t>((universe + 63) / 64), 0);
    }
  }

  /// Cardinality of the set.
  int size() const {
    int total = 0;
    if (sparse()) {
      for (const auto& [wi, w] : sparse_words_) total += std::popcount(w);
    } else {
      for (auto w : words_) total += std::popcount(w);
    }
    return total;
  }

  bool empty() const {
    if (sparse()) return sparse_words_.empty();
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  /// Calls `fn(v)` for every member v in increasing order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    if (sparse()) {
      for (const auto& [wi, word] : sparse_words_) {
        std::uint64_t w = word;
        while (w != 0) {
          const int bit = std::countr_zero(w);
          fn(static_cast<int>(static_cast<std::size_t>(wi) * 64) + bit);
          w &= w - 1;
        }
      }
      return;
    }
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(static_cast<int>(wi * 64) + bit);
        w &= w - 1;
      }
    }
  }

  /// Members as a vector (convenience for tests and reporting).
  std::vector<int> to_vector() const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(size()));
    for_each([&](int v) { out.push_back(v); });
    return out;
  }

  bool operator==(const NodeSet& other) const {
    // Same universe implies same mode, and both forms are canonical.
    return universe_ == other.universe_ && words_ == other.words_ &&
           sparse_words_ == other.sparse_words_;
  }
  bool operator!=(const NodeSet& other) const { return !(*this == other); }

  /// 64-bit mixing hash (SplitMix64 over the words); used for profile
  /// fingerprints in cycle detection.  Only comparable between sets of the
  /// same universe (which share a storage mode).
  std::uint64_t hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                      static_cast<std::uint64_t>(universe_);
    const auto mix = [&h](std::uint64_t w) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      std::uint64_t z = h;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    };
    if (sparse()) {
      for (const auto& [wi, w] : sparse_words_) {
        mix(static_cast<std::uint64_t>(wi));
        mix(w);
      }
    } else {
      for (auto w : words_) mix(w);
    }
    return h;
  }

 private:
  using SparseWord = std::pair<std::uint32_t, std::uint64_t>;

  bool in_range(int v) const { return v >= 0 && v < universe_; }
  bool sparse() const { return universe_ > kDenseUniverseLimit; }

  static std::uint32_t word_index(int v) {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(v) >> 6);
  }

  std::vector<SparseWord>::iterator find_word(std::uint32_t wi) {
    return std::lower_bound(
        sparse_words_.begin(), sparse_words_.end(), wi,
        [](const SparseWord& entry, std::uint32_t key) {
          return entry.first < key;
        });
  }
  std::vector<SparseWord>::const_iterator find_word(std::uint32_t wi) const {
    return std::lower_bound(
        sparse_words_.begin(), sparse_words_.end(), wi,
        [](const SparseWord& entry, std::uint32_t key) {
          return entry.first < key;
        });
  }

  int universe_ = 0;
  std::vector<std::uint64_t> words_;       ///< dense mode storage
  std::vector<SparseWord> sparse_words_;   ///< sparse mode storage (sorted)
};

}  // namespace gncg
