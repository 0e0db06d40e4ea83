#include "support/instrument.hpp"

#include "support/arena.hpp"

#if GNCG_INSTRUMENT_ENABLED
#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>
#endif

#include <fstream>

namespace gncg::instrument {

const char* counter_name(Counter counter) {
  switch (counter) {
    case Counter::kSsspHeapRuns: return "sssp_heap_runs";
    case Counter::kSsspHeapPops: return "sssp_heap_pops";
    case Counter::kSsspHeapRelaxations: return "sssp_heap_relaxations";
    case Counter::kSsspDialRuns: return "sssp_dial_runs";
    case Counter::kSsspDialPops: return "sssp_dial_pops";
    case Counter::kSsspDialRelaxations: return "sssp_dial_relaxations";
    case Counter::kSsspDialRingScans: return "sssp_dial_ring_scans";
    case Counter::kSsspRepairs: return "sssp_repairs";
    case Counter::kSsspRepairRelaxations: return "sssp_repair_relaxations";
    case Counter::kSsspRollbackEntries: return "sssp_rollback_entries";
    case Counter::kBrSearches: return "br_searches";
    case Counter::kBrExpansions: return "br_expansions";
    case Counter::kBrEvaluations: return "br_evaluations";
    case Counter::kBrPrunesGlobal: return "br_prunes_global_floor";
    case Counter::kBrPrunesPerNode: return "br_prunes_per_node_floor";
    case Counter::kBrBranchAborts: return "br_branch_aborts";
    case Counter::kLadderCalls: return "ladder_calls";
    case Counter::kLadderTier1Final: return "ladder_tier1_final";
    case Counter::kLadderTier2Final: return "ladder_tier2_final";
    case Counter::kLadderTier3Final: return "ladder_tier3_final";
    case Counter::kLadderEscapeExact: return "ladder_escape_exact";
    case Counter::kLadderCandidates: return "ladder_candidates";
    case Counter::kLadderCandidateBudget: return "ladder_candidate_budget";
    case Counter::kEngineCacheHits: return "engine_cache_hits";
    case Counter::kEngineCacheMisses: return "engine_cache_misses";
    case Counter::kEngineEpochBumps: return "engine_epoch_bumps";
    case Counter::kEngineCsrRelocations: return "engine_csr_relocations";
    case Counter::kEngineCsrCompactions: return "engine_csr_compactions";
    case Counter::kTtProbes: return "tt_probes";
    case Counter::kTtConfirms: return "tt_confirms";
    case Counter::kTtCollisions: return "tt_collisions";
    case Counter::kPoolRegions: return "pool_regions";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kArenaShrinkEvents: return "arena_shrink_events";
    case Counter::kSsspBoundedRepairs: return "sssp_bounded_repairs";
    case Counter::kSsspBoundedTruncations: return "sssp_bounded_truncations";
    case Counter::kLadderBoundedProbes: return "ladder_bounded_probes";
    case Counter::kLadderBatchCalls: return "ladder_batch_calls";
    case Counter::kLadderBatchAgents: return "ladder_batch_agents";
    case Counter::kMgmRounds: return "mgm_rounds";
    case Counter::kMgmProposals: return "mgm_proposals";
    case Counter::kMgmConflictDrops: return "mgm_conflict_drops";
    case Counter::kMgmCommits: return "mgm_commits";
    case Counter::kEngineRowRepairs: return "engine_row_repairs";
    case Counter::kEngineRepairRelaxations: return "engine_repair_relaxations";
    case Counter::kBrRowBuilds: return "br_row_builds";
    case Counter::kBrRowEntries: return "br_row_entries";
    case Counter::kBrMergeWrites: return "br_merge_writes";
    case Counter::kEngineScanSums: return "engine_scan_sums";
    case Counter::kEngineScanFloorPrunes: return "engine_scan_floor_prunes";
    case Counter::kBrFullSums: return "br_full_sums";
    case Counter::kCount: break;
  }
  return "unknown";
}

#if GNCG_INSTRUMENT_ENABLED

namespace {

/// One buffered trace event.  `category` points at a string literal.
struct TraceEvent {
  std::string name;
  const char* category;
  std::int64_t start_us;
  std::int64_t duration_us;
  std::uint64_t tid;
};

/// Owns every thread's counter block and trace buffer for the process
/// lifetime.  Leaked (never destroyed) so thread-exit destructors and
/// static-teardown order can't invalidate snapshot reads -- same policy
/// as the arena registry.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<detail::CounterBlock>> blocks;
  std::vector<std::unique_ptr<std::vector<TraceEvent>>> trace_buffers;
  std::uint64_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

/// Per-thread trace state: a buffer owned by the registry plus a small
/// stable thread id (assigned in registration order, used as the trace
/// `tid` so exports are readable).
struct ThreadTraceState {
  std::vector<TraceEvent>* buffer = nullptr;
  std::uint64_t tid = 0;
};

ThreadTraceState& tls_trace_state() {
  thread_local ThreadTraceState state = [] {
    ThreadTraceState s;
    auto buffer = std::make_unique<std::vector<TraceEvent>>();
    s.buffer = buffer.get();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    s.tid = reg.next_tid++;
    reg.trace_buffers.push_back(std::move(buffer));
    return s;
  }();
  return state;
}

std::chrono::steady_clock::time_point& trace_epoch() {
  static std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void json_escape_into(std::string& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[c >> 4];
          out += hex[c & 0xf];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

}  // namespace

namespace detail {

CounterBlock& tls_counters() {
  thread_local CounterBlock* block = [] {
    auto owned = std::make_unique<CounterBlock>();
    CounterBlock* raw = owned.get();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.blocks.push_back(std::move(owned));
    return raw;
  }();
  return *block;
}

std::atomic<bool>& tracing_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

std::int64_t trace_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

void record_span(std::string name, const char* category,
                 std::int64_t start_us, std::int64_t duration_us) {
  ThreadTraceState& state = tls_trace_state();
  state.buffer->push_back(TraceEvent{std::move(name), category, start_us,
                                     duration_us, state.tid});
}

}  // namespace detail

CounterArray thread_counters() { return detail::tls_counters().slots; }

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snapshot;
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    snapshot.counter_blocks = reg.blocks.size();
    for (const auto& block : reg.blocks)
      for (std::size_t i = 0; i < kCounterCount; ++i)
        snapshot.counters[i] += block->slots[i];
  }
  snapshot.arena_peak_footprint_bytes = arena_stats().peak_footprint_bytes;
  return snapshot;
}

std::uint64_t counter_total(Counter counter) {
  const std::size_t slot = static_cast<std::size_t>(counter);
  std::uint64_t total = 0;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& block : reg.blocks) total += block->slots[slot];
  return total;
}

void start_tracing() {
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& buffer : reg.trace_buffers) buffer->clear();
  }
  trace_epoch() = std::chrono::steady_clock::now();
  detail::tracing_flag().store(true, std::memory_order_release);
}

bool tracing_enabled() {
  return detail::tracing_flag().load(std::memory_order_relaxed);
}

std::size_t stop_tracing(const std::string& path) {
  detail::tracing_flag().store(false, std::memory_order_release);

  std::vector<TraceEvent> events;
  std::uint64_t max_tid = 0;
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& buffer : reg.trace_buffers) {
      for (TraceEvent& event : *buffer) {
        max_tid = std::max(max_tid, event.tid);
        events.push_back(std::move(event));
      }
      buffer->clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.tid < b.tid;
            });

  std::ofstream out(path);
  if (!out) return 0;
  out << "[\n";
  bool first = true;
  for (std::uint64_t tid = 0; tid <= max_tid && !events.empty(); ++tid) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
        << R"(,"args":{"name":"gncg-thread-)" << tid << "\"}}";
  }
  for (const TraceEvent& event : events) {
    if (!first) out << ",\n";
    first = false;
    std::string name;
    json_escape_into(name, event.name.c_str());
    std::string category;
    json_escape_into(category, event.category);
    out << R"({"name":")" << name << R"(","cat":")" << category
        << R"(","ph":"X","ts":)" << event.start_us << R"(,"dur":)"
        << event.duration_us << R"(,"pid":1,"tid":)" << event.tid << "}";
  }
  out << "\n]\n";
  return events.size();
}

#else  // GNCG_INSTRUMENT_ENABLED

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snapshot;
  snapshot.arena_peak_footprint_bytes = arena_stats().peak_footprint_bytes;
  return snapshot;
}

std::uint64_t counter_total(Counter) { return 0; }

void start_tracing() {}
bool tracing_enabled() { return false; }

std::size_t stop_tracing(const std::string& path) {
  std::ofstream out(path);
  if (out) out << "[\n]\n";
  return 0;
}

#endif  // GNCG_INSTRUMENT_ENABLED

CounterArray counters_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& now) {
  CounterArray delta = now.counters;
  for (std::size_t i = 0; i < kCounterCount; ++i) delta[i] -= before.counters[i];
  return delta;
}

}  // namespace gncg::instrument
