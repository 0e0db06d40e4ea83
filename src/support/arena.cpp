#include "support/arena.hpp"

#include <memory>
#include <mutex>

#include "support/instrument.hpp"

namespace gncg {

std::size_t ScratchArena::footprint_bytes() const {
  std::size_t total = dijkstra_.footprint_bytes() + dial_.footprint_bytes() +
                      sssp_.footprint_bytes();
  total += sum_dist_.capacity() * sizeof(double);
  total += owned_targets_.capacity() * sizeof(int);
  total += side_mark_.capacity() * sizeof(char);
  total += dfs_stack_.capacity() * sizeof(int);
  total += (scan_weights_.capacity() + scan_memo_.capacity()) * sizeof(double);
  total += repair_.affected_mark.capacity() * sizeof(char);
  total += repair_.affected.capacity() * sizeof(int);
  total += repair_.queue.footprint_bytes();
  total += br_.setup.footprint_bytes();
  total += br_.outcomes.capacity() * sizeof(BrScratch::Outcome);
  total += br_branch_.undo.capacity() * sizeof(std::pair<int, double>);
  total += br_branch_.dist.capacity() * sizeof(double);
  total += ladder_.cand.capacity() * sizeof(int);
  total += ladder_.sssp.footprint_bytes();
  total += ladder_.thresholds.capacity() * sizeof(double);
  total += ladder_.floors.footprint_bytes();
  total += ladder_.probe_rank.capacity() * sizeof(std::pair<double, int>);
  return total;
}

namespace {

/// Registry owning every arena; arenas outlive their threads so stats stay
/// meaningful after a pool resize.  Leaked deliberately (never destroyed)
/// so worker threads that outlive main()'s statics can still touch their
/// arena during teardown.
///
/// Peaks are per-arena (worker-sharded, sampled on query): each entry
/// tracks its own arena's footprint high-water mark, and arena_stats()
/// reports the sum of the per-arena peaks.  The sum-of-peaks is an upper
/// bound on the true simultaneous peak, but unlike a single global
/// high-water mark it attributes memory to the worker that reserved it.
struct ArenaRegistry {
  struct Entry {
    std::unique_ptr<ScratchArena> arena;
    std::size_t peak_footprint_bytes = 0;
  };
  std::mutex mu;
  std::vector<Entry> arenas;
};

ArenaRegistry& registry() {
  static ArenaRegistry* instance = new ArenaRegistry();
  return *instance;
}

ScratchArena* make_registered_arena() {
  auto arena = std::make_unique<ScratchArena>();
  ScratchArena* raw = arena.get();
  ArenaRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.arenas.push_back(ArenaRegistry::Entry{std::move(arena), 0});
  return raw;
}

}  // namespace

ScratchArena& worker_arena() {
  static thread_local ScratchArena* arena = make_registered_arena();
  return *arena;
}

ArenaStats arena_stats() {
  ArenaRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ArenaStats stats;
  stats.arenas = reg.arenas.size();
  for (auto& entry : reg.arenas) {
    const std::size_t footprint = entry.arena->footprint_bytes();
    stats.footprint_bytes += footprint;
    if (footprint > entry.peak_footprint_bytes)
      entry.peak_footprint_bytes = footprint;
    stats.peak_footprint_bytes += entry.peak_footprint_bytes;
  }
  stats.shrink_events =
      instrument::counter_total(instrument::Counter::kArenaShrinkEvents);
  return stats;
}

}  // namespace gncg
