// Zero-overhead instrumentation: per-worker kernel counters + span tracing.
//
// Every hot kernel in the stack (Dijkstra variants, the incremental SSSP
// repair, the best-response branch-and-bound, the approx-BR ladder, the
// deviation engine's caches, the transposition table, the worker pool)
// reports what it *did* -- relaxations, expansions, prunes, cache hits --
// through this module.  Design rules, in order of importance:
//
//  * Zero overhead when compiled out.  The CMake option GNCG_INSTRUMENT
//    (default ON) defines GNCG_INSTRUMENT_ENABLED; under OFF every macro
//    below expands to nothing and every inline entry point is an empty
//    function, so the instrumented and uninstrumented kernels are the same
//    machine code.  Results never depend on the setting: counters and spans
//    are pure observers.
//  * No atomics on hot paths.  Each thread owns a cache-line-aligned block
//    of plain uint64_t slots (one per Counter), registered once in a global
//    registry on first use.  GNCG_COUNT is a single indexed increment on
//    the owner thread; aggregation happens only at flush
//    (metrics_snapshot()), which sums across the registered blocks.  Call
//    flush at quiescent points (after joins) -- the per-slot reads are not
//    synchronized with in-flight increments.
//  * Counters are deterministic event counts, timings are not.  A counter
//    must count work whose amount is a pure function of the inputs (the
//    relaxation count of a Dijkstra run, the expansion count of a full-mode
//    BR search), never wall time.  Span durations are wall-clock and live
//    exclusively in the trace export -- they are never folded into a
//    MetricsSnapshot, mirroring the sweep contract's rule that *_ms metrics
//    are stripped from journals.  Per-job counter records are thread-count
//    invariant when the job runs on one thread (the sweep runner pins jobs
//    with a NestedSerialGuard when collecting metrics).
//
// Span tracing records (name, category, start, duration, thread) events
// into per-thread buffers while tracing is active and exports them as a
// Chrome trace-event JSON array (load in chrome://tracing or
// ui.perfetto.dev).  Spans cost one relaxed atomic load when tracing is
// compiled in but inactive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#ifndef GNCG_INSTRUMENT_ENABLED
#define GNCG_INSTRUMENT_ENABLED 1
#endif

#if GNCG_INSTRUMENT_ENABLED
#include <atomic>
#endif

namespace gncg::instrument {

/// The fixed counter taxonomy.  Names (counter_name) are stable identifiers
/// used in metrics JSONL records and perfbench run records; append new
/// counters before kCount and never renumber recorded ones mid-series.
enum class Counter : int {
  // SSSP kernels (graph/dijkstra.hpp: DijkstraBuffers, DialBuffers,
  // dijkstra_over -- the free function serves host-closure rows).
  kSsspHeapRuns,         ///< heap-queue Dijkstra runs
  kSsspHeapPops,         ///< heap pops (stale entries included)
  kSsspHeapRelaxations,  ///< successful distance decreases
  kSsspDialRuns,         ///< bucket-queue Dijkstra runs
  kSsspDialPops,         ///< ring entries drained (stale included)
  kSsspDialRelaxations,  ///< successful distance decreases
  kSsspDialRingScans,    ///< distance rings swept (incl. empty rings)

  // Incremental SSSP (graph/incremental_sssp.hpp).
  kSsspRepairs,            ///< relax_insert calls that improved a distance
  kSsspRepairRelaxations,  ///< distances overwritten during repairs
  kSsspRollbackEntries,    ///< log entries replayed by rollback()

  // Best-response branch-and-bound (core/br_search.cpp).
  kBrSearches,          ///< driver invocations (sum + max)
  kBrExpansions,        ///< DFS node expansions (edge inserts)
  kBrEvaluations,       ///< canonical subset evaluations (empty set incl.)
  kBrPrunesGlobal,      ///< subtree cuts by the O(1) global floor
  kBrPrunesPerNode,     ///< subtree cuts by the O(n) per-node floor
  kBrBranchAborts,      ///< first-improvement branches abandoned mid-DFS

  // Approximate-BR ladder (core/approx_br.cpp).
  kLadderCalls,            ///< ladder invocations
  kLadderTier1Final,       ///< calls resolved at tier 1 (greedy)
  kLadderTier2Final,       ///< calls resolved at tier 2 (restricted exact);
                           ///< only calls whose rows are all exact reach it
  kLadderTier3Final,       ///< never incremented (the ladder has two
                           ///< tiers); kept for counter-id stability
  kLadderEscapeExact,      ///< tier-2 escape-bound exactness certificates
  kLadderCandidates,       ///< oracle shortlist entries actually returned
  kLadderCandidateBudget,  ///< shortlist budget requested

  // Deviation engine (core/deviation_engine.cpp, graph/csr_adjacency.cpp).
  kEngineCacheHits,       ///< row queries (distances, distance_cost,
                          ///< addition_distance_cost) served at the current
                          ///< epoch; warm passes skip current rows and
                          ///< count none
  kEngineCacheMisses,     ///< distance-cache refills (one Dijkstra each)
  kEngineEpochBumps,      ///< topology mutations invalidating the caches
  kEngineCsrRelocations,  ///< CSR slices relocated on slack exhaustion
  kEngineCsrCompactions,  ///< CSR slab compactions

  // Transposition table (core/transposition.cpp).
  kTtProbes,      ///< find() calls
  kTtConfirms,    ///< exact profile comparisons performed
  kTtCollisions,  ///< confirmed hash collisions (distinct profiles)

  // Worker pool (support/parallel.cpp) and arenas (support/arena.cpp,
  // graph/dijkstra.hpp shrink policy).
  kPoolRegions,       ///< top-level parallel regions dispatched
  kPoolTasks,         ///< per-worker region bodies executed
  kArenaShrinkEvents, ///< scratch-buffer shrinks taken (release_excess etc.)

  // Bounded-frontier SSSP repair (graph/incremental_sssp.hpp) and the
  // batched certifier (core/approx_br.cpp).  Appended for PR 9; the
  // bounded counters stay 0 on every exact path (FrontierPolicy absent).
  kSsspBoundedRepairs,     ///< relax_insert calls run under a frontier policy
  kSsspBoundedTruncations, ///< bounded repairs cut short (estimate, not exact)
  kLadderBoundedProbes,    ///< never incremented (tier-1 probes are row
                           ///< floors now); kept for counter-id stability
  kLadderBatchCalls,       ///< certify_agents batch invocations
  kLadderBatchAgents,      ///< agents certified through certify_agents

  // Parallel-MGM round scheduler (core/dynamics_policy.cpp).  Appended for
  // PR 10; all four are deterministic event counts (per-index proposal
  // slots, serial winner fold), identical at any thread count.
  kMgmRounds,         ///< MGM rounds executed (propose + select + commit)
  kMgmProposals,      ///< agent proposals evaluated across rounds
  kMgmConflictDrops,  ///< shard winners dropped by conflict-set overlap
  kMgmCommits,        ///< moves committed (winners surviving selection)

  // Deviation-engine row repair (core/deviation_engine.cpp): stale rows the
  // edit log still covers are repaired instead of refilled, so
  // kEngineCacheMisses keeps meaning "full refill".
  kEngineRowRepairs,         ///< stale rows repaired from the edit log
  kEngineRepairRelaxations,  ///< distance decreases during row repairs

  // Best response on facility rows (core/br_search.cpp): one exact
  // single-insert improvement row per candidate that passes the global
  // entry cut (the ladder builds one row per shortlist candidate, capped
  // under its repair_cap), then a min-merge per DFS insert.
  kBrRowBuilds,   ///< candidate improvement rows built
  kBrRowEntries,  ///< (node, distance) entries across built rows
  kBrMergeWrites, ///< distances lowered by row min-merges (undo entries)

  // Deviation-engine single-move scans (core/deviation_engine.cpp): O(n)
  // addition and bridge-swap sums a scan computed, and candidates the O(1)
  // addition floor skipped before any sum or masked Dijkstra.  Flushed once
  // per scan.
  kEngineScanSums,         ///< O(n) addition / bridge sums computed
  kEngineScanFloorPrunes,  ///< candidates skipped by the O(1) floor

  // Kept so counter ids and JSONL keys stay stable: the bounded
  // best-response search that counted the O(n) sums its brackets could not
  // settle is gone (br_search takes exact rows only).
  kBrFullSums,  ///< never incremented

  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case identifier of a counter (JSONL keys, perfbench records).
const char* counter_name(Counter counter);

using CounterArray = std::array<std::uint64_t, kCounterCount>;

/// True when the instrumentation layer is compiled in.
inline constexpr bool compiled_in() { return GNCG_INSTRUMENT_ENABLED != 0; }

#if GNCG_INSTRUMENT_ENABLED

namespace detail {

/// One worker's counter slots.  Cache-line aligned so two workers' blocks
/// never false-share; only the owning thread writes, flush reads.
struct alignas(64) CounterBlock {
  CounterArray slots{};
};

/// The calling thread's block, null until its first bump.  Constant-
/// initialized, so reading it is a plain thread-local load: no guard and no
/// call on the hot path.
inline constinit thread_local CounterBlock* tls_counter_block = nullptr;

/// Slow path of tls_counters(): creates and registers the calling thread's
/// block and publishes it in tls_counter_block.  The registry owns every
/// block for the process lifetime (like the arena registry), so flushes
/// stay meaningful after worker threads exit.
CounterBlock& register_counter_block();

/// The calling thread's block, registered on first use.
inline CounterBlock& tls_counters() {
  CounterBlock* block = tls_counter_block;
  if (block == nullptr) [[unlikely]]
    return register_counter_block();
  return *block;
}

}  // namespace detail

/// Adds `n` to the calling thread's slot for `counter`.  Plain increment on
/// thread-owned memory -- the no-atomics hot-path primitive.
inline void bump(Counter counter, std::uint64_t n = 1) {
  detail::tls_counters().slots[static_cast<std::size_t>(counter)] += n;
}

/// The calling thread's own counter slice (not summed across threads).
CounterArray thread_counters();

#else  // GNCG_INSTRUMENT_ENABLED

inline void bump(Counter, std::uint64_t = 1) {}
inline CounterArray thread_counters() { return CounterArray{}; }

#endif  // GNCG_INSTRUMENT_ENABLED

/// Captures the calling thread's counters at construction; delta() is the
/// work this thread recorded since then.  The sweep runner brackets each
/// (single-thread-pinned) job with one of these to attribute kernel
/// counters per job.  Compiled to a no-op (all-zero deltas) under OFF.
class ThreadFrame {
 public:
  ThreadFrame() : base_(thread_counters()) {}

  CounterArray delta() const {
    CounterArray now = thread_counters();
    for (std::size_t i = 0; i < kCounterCount; ++i) now[i] -= base_[i];
    return now;
  }

 private:
  CounterArray base_;
};

/// Point-in-time aggregate: counter totals summed across every registered
/// worker block, plus non-deterministic process diagnostics (block/arena
/// footprint).  Counters are strictly integer event counts -- wall-clock
/// timings never appear here (they live only in the trace export).
struct MetricsSnapshot {
  CounterArray counters{};

  // Diagnostics: worker/arena fleet state.  These depend on pool width and
  // history, so they belong in run provenance, never in per-job records.
  std::size_t counter_blocks = 0;
  std::size_t arena_peak_footprint_bytes = 0;
};

/// Sums all per-worker blocks (call at quiescent points) and samples the
/// arena registry.  Under OFF: all counters zero, arena stats still real.
MetricsSnapshot metrics_snapshot();

/// Sum of a single counter across every registered block (0 under OFF).
/// Same quiescence caveat as metrics_snapshot().
std::uint64_t counter_total(Counter counter);

/// now.counters - before.counters, element-wise.
CounterArray counters_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& now);

// --- span tracing ----------------------------------------------------------

/// Starts recording spans process-wide (clears previously buffered events).
/// Not reentrant: one trace session at a time.
void start_tracing();

/// True while a trace session is active (cheap: one relaxed load).
bool tracing_enabled();

/// Stops the session and writes every buffered span as a Chrome trace-event
/// JSON array to `path` (one event per line inside the array, sorted by
/// start time; thread_name metadata rows included).  Returns the number of
/// span events written, 0 on an unopenable path.  Under OFF: writes an
/// empty-array file and returns 0.
std::size_t stop_tracing(const std::string& path);

#if GNCG_INSTRUMENT_ENABLED

namespace detail {
std::atomic<bool>& tracing_flag();
void record_span(std::string name, const char* category,
                 std::int64_t start_us, std::int64_t duration_us);
std::int64_t trace_now_us();
}  // namespace detail

/// RAII span: records a complete ("ph":"X") trace event for the enclosing
/// scope when a trace session is active.  `category` must be a string
/// literal (stored by pointer).  Inactive sessions cost one relaxed load.
class Span {
 public:
  explicit Span(std::string name, const char* category = "gncg")
      : name_(std::move(name)), category_(category),
        start_us_(tracing_enabled() ? detail::trace_now_us() : -1) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (start_us_ >= 0 && tracing_enabled())
      detail::record_span(std::move(name_), category_, start_us_,
                          detail::trace_now_us() - start_us_);
  }

 private:
  std::string name_;
  const char* category_;
  std::int64_t start_us_;
};

#else  // GNCG_INSTRUMENT_ENABLED

class Span {
 public:
  explicit Span(std::string, const char* = "gncg") {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // GNCG_INSTRUMENT_ENABLED

}  // namespace gncg::instrument

// --- macros ----------------------------------------------------------------
//
// The macro layer exists so call sites compile to *nothing* under OFF --
// including their argument expressions and any locals declared through
// GNCG_IF_INSTRUMENT (hot kernels accumulate into a stack local and flush
// once per run; the local itself must vanish with the layer).

#if GNCG_INSTRUMENT_ENABLED

#define GNCG_COUNT(counter) \
  ::gncg::instrument::bump(::gncg::instrument::Counter::counter)
#define GNCG_COUNT_N(counter, n) \
  ::gncg::instrument::bump(::gncg::instrument::Counter::counter, (n))
#define GNCG_IF_INSTRUMENT(...) __VA_ARGS__

#define GNCG_INSTRUMENT_CONCAT_(a, b) a##b
#define GNCG_INSTRUMENT_CONCAT(a, b) GNCG_INSTRUMENT_CONCAT_(a, b)
/// Scope span with a string-literal or std::string name.
#define GNCG_SPAN(name, category)                                       \
  const ::gncg::instrument::Span GNCG_INSTRUMENT_CONCAT(gncg_span_,     \
                                                        __LINE__)(      \
      (name), (category))

#else  // GNCG_INSTRUMENT_ENABLED

#define GNCG_COUNT(counter) ((void)0)
#define GNCG_COUNT_N(counter, n) ((void)0)
#define GNCG_IF_INSTRUMENT(...)
#define GNCG_SPAN(name, category) ((void)0)

#endif  // GNCG_INSTRUMENT_ENABLED
