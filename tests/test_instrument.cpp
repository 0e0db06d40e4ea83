// Tests for the instrumentation layer (support/instrument.hpp):
//
//  * the counter registry primitives: thread-local bumps, ThreadFrame
//    deltas, cross-thread aggregation at metrics_snapshot();
//  * the br_search accounting invariant -- every DFS expansion evaluates
//    exactly once and every search evaluates the empty set once, so
//    delta(evaluations) == delta(expansions) + delta(searches), and the
//    instrument's evaluation count equals the per-result counts the search
//    already reported;
//  * the single-move scan accounting invariant -- a full add-only scan
//    either computes a candidate's addition sum or skips it by the O(1)
//    floor, exactly once, so delta(sums) + delta(prunes) == candidates;
//  * the sweep metrics sink: per-job counter records are byte-identical
//    for any runner thread count (jobs are pinned while collecting), the
//    JSONL is schema-tagged and carries every counter by name;
//  * the trace exporter writes well-formed JSON.
//
// Every test is GNCG_INSTRUMENT=OFF-safe: assertions that need live
// counters are guarded on instrument::compiled_in(), and the
// thread-count-invariance / schema tests hold verbatim under OFF (all
// counters read 0 on both sides).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/best_response.hpp"
#include "core/deviation_engine.hpp"
#include "core/profile_gen.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/instrument.hpp"
#include "support/rng.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"

namespace gncg {
namespace {

namespace ins = ::gncg::instrument;

std::uint64_t at(const ins::CounterArray& counters, ins::Counter counter) {
  return counters[static_cast<std::size_t>(counter)];
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "gncg_instrument_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> sorted_lines(const std::string& path) {
  auto lines = read_lines(path);
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- registry primitives --------------------------------------------------

TEST(Instrument, CounterNamesAreUniqueStableIdentifiers) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < ins::kCounterCount; ++i) {
    const std::string name = ins::counter_name(static_cast<ins::Counter>(i));
    ASSERT_FALSE(name.empty()) << i;
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), ins::kCounterCount);
}

TEST(Instrument, ThreadFrameSeesOwnBumpsOnly) {
  if (!ins::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=OFF";
  const ins::ThreadFrame frame;
  ins::bump(ins::Counter::kTtProbes, 3);
  ins::bump(ins::Counter::kTtProbes);
  const ins::CounterArray delta = frame.delta();
  EXPECT_EQ(at(delta, ins::Counter::kTtProbes), 4u);
  EXPECT_EQ(at(delta, ins::Counter::kTtCollisions), 0u);
}

TEST(Instrument, SnapshotAggregatesAcrossThreads) {
  if (!ins::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=OFF";
  const std::uint64_t before = ins::counter_total(ins::Counter::kTtCollisions);
  std::thread other([] { ins::bump(ins::Counter::kTtCollisions, 7); });
  other.join();
  ins::bump(ins::Counter::kTtCollisions, 2);
  EXPECT_EQ(ins::counter_total(ins::Counter::kTtCollisions) - before, 9u);
  // The foreign thread's bumps are invisible to this thread's own slice.
  const ins::MetricsSnapshot snapshot = ins::metrics_snapshot();
  EXPECT_GE(at(snapshot.counters, ins::Counter::kTtCollisions), 9u);
  EXPECT_GE(snapshot.counter_blocks, 2u);
}

TEST(Instrument, CompiledOutEverythingReadsZero) {
  if (ins::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=ON";
  ins::bump(ins::Counter::kTtProbes, 100);
  EXPECT_EQ(ins::counter_total(ins::Counter::kTtProbes), 0u);
  const ins::MetricsSnapshot snapshot = ins::metrics_snapshot();
  for (std::size_t i = 0; i < ins::kCounterCount; ++i)
    EXPECT_EQ(snapshot.counters[i], 0u);
  const ins::ThreadFrame frame;
  for (std::size_t i = 0; i < ins::kCounterCount; ++i)
    EXPECT_EQ(frame.delta()[i], 0u);
}

// --- br_search accounting invariant ---------------------------------------

TEST(Instrument, BrSearchExpansionAccountingIsExact) {
  if (!ins::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=OFF";
  Rng rng(4242);
  const Game game(random_one_two_host(10, 0.5, rng), 1.0);
  StrategyProfile profile(10);
  for (int i = 0; i + 1 < 10; ++i) profile.add_buy(i, i + 1);
  DeviationEngine engine(game, std::move(profile));

  const ins::MetricsSnapshot before = ins::metrics_snapshot();
  std::uint64_t reported_evaluations = 0;
  std::uint64_t candidates = 0;
  constexpr int kAgents = 6;
  for (int u = 0; u < kAgents; ++u) {
    BestResponseOptions options;  // full mode: every branch fully explored
    const BestResponseResult br = exact_best_response(engine, u, options);
    reported_evaluations += br.evaluations;
    for (int v = 0; v < game.node_count(); ++v)
      if (game.can_buy(u, v)) ++candidates;
  }
  const ins::CounterArray delta =
      ins::counters_delta(before, ins::metrics_snapshot());

  // One driver invocation per agent, and the exact pairing: each expansion
  // evaluates once, each search evaluates the empty set once.
  EXPECT_EQ(at(delta, ins::Counter::kBrSearches), kAgents);
  EXPECT_EQ(at(delta, ins::Counter::kBrEvaluations),
            at(delta, ins::Counter::kBrExpansions) +
                at(delta, ins::Counter::kBrSearches));
  // The instrument and the search's own result rows agree to the event.
  EXPECT_EQ(at(delta, ins::Counter::kBrEvaluations), reported_evaluations);
  EXPECT_GT(at(delta, ins::Counter::kBrExpansions), 0u);
  // Exact mode builds at most one facility row per candidate, however many
  // DFS nodes insert it (the pairing above holds over row min-merges).
  EXPECT_GT(at(delta, ins::Counter::kBrRowBuilds), 0u);
  EXPECT_LE(at(delta, ins::Counter::kBrRowBuilds), candidates);
}

TEST(Instrument, AddOnlyScanCountsEveryCandidateOnce) {
  if (!ins::compiled_in()) GTEST_SKIP() << "GNCG_INSTRUMENT=OFF";
  Rng rng(4343);
  const int n = 32;
  const Game dense(random_one_two_host(n, 0.5, rng), 2.0);
  const Game euclid(
      HostGraph::from_points(uniform_points(n, 2, 100.0, rng), 2.0), 40.0);
  std::uint64_t all_prunes = 0;
  for (const Game* game : {&dense, &euclid}) {
    DeviationEngine engine(*game, random_profile(*game, rng, 0.1));
    engine.warm_distances();
    for (int u = 0; u < n; ++u) {
      std::uint64_t candidates = 0;
      for (int x = 0; x < n; ++x)
        if (game->can_buy(u, x) && !engine.profile().has_edge(u, x))
          ++candidates;
      const ins::ThreadFrame frame;
      engine.best_addition_warm(u);
      const ins::CounterArray delta = frame.delta();
      EXPECT_EQ(at(delta, ins::Counter::kEngineScanSums) +
                    at(delta, ins::Counter::kEngineScanFloorPrunes),
                candidates)
          << "agent " << u;
      all_prunes += at(delta, ins::Counter::kEngineScanFloorPrunes);
    }
  }
  EXPECT_GT(all_prunes, 0u);  // the floor fired
}

// --- sweep metrics sink ---------------------------------------------------

/// br_certify + ne_sampling across two hosts: the two scenarios the
/// determinism probe pins down (both fan out internally when unpinned).
SweepPlan metrics_plan() {
  SweepPlan plan;
  plan.scenarios = {"br_certify", "ne_sampling"};
  plan.hosts = {"dense", "tree"};
  plan.ns = {6};
  plan.alphas = {1.0};
  plan.seeds = 2;
  plan.extras = {{"settle_rounds", 1.0},
                 {"restarts", 2.0},
                 {"max_moves", 60.0},
                 {"schedulers", 2.0},
                 {"rules", 2.0}};
  return plan;
}

TEST(Instrument, MetricsRecordsAreThreadCountInvariant) {
  const std::string path1 = temp_path("metrics1.jsonl");
  const std::string pathN = temp_path("metricsN.jsonl");

  SweepRunnerOptions serial;
  serial.threads = 1;
  serial.metrics_path = path1;
  const SweepReport report1 = run_sweep(metrics_plan(), serial);

  SweepRunnerOptions parallel;
  parallel.threads = 4;
  parallel.metrics_path = pathN;
  const SweepReport reportN = run_sweep(metrics_plan(), parallel);

  ASSERT_EQ(report1.executed, 8u);  // 2 scenarios x 2 hosts x 2 seeds
  ASSERT_EQ(reportN.executed, 8u);
  // The whole file -- header and every per-job record -- is byte-identical
  // after sorting, at any thread count, with instrumentation ON or OFF.
  EXPECT_EQ(sorted_lines(path1), sorted_lines(pathN));

  // Outcome counters agree job-for-job as well.
  for (std::size_t i = 0; i < report1.outcomes.size(); ++i)
    EXPECT_EQ(report1.outcomes[i].counters, reportN.outcomes[i].counters)
        << report1.outcomes[i].point.scenario << " #"
        << report1.outcomes[i].point.point_index;

  // When compiled in, the pinned jobs must have recorded real kernel work.
  if (ins::compiled_in()) {
    std::uint64_t evaluations = 0;
    for (const auto& outcome : report1.outcomes)
      evaluations += at(outcome.counters, ins::Counter::kBrEvaluations);
    EXPECT_GT(evaluations, 0u);
  }
  std::remove(path1.c_str());
  std::remove(pathN.c_str());
}

TEST(Instrument, MetricsJsonlCarriesSchemaAndEveryCounter) {
  const std::string path = temp_path("metrics_schema.jsonl");
  SweepRunnerOptions options;
  options.threads = 1;
  options.metrics_path = path;
  const SweepReport report = run_sweep(metrics_plan(), options);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u + report.executed);  // header + executed jobs

  const auto header = JsonValue::parse(lines[0]);
  ASSERT_TRUE(header.has_value()) << lines[0];
  EXPECT_EQ(header->string_at("schema"), "gncg-sweep-metrics-1");
  EXPECT_EQ(header->number_at("jobs"), static_cast<double>(report.executed));
  const JsonValue* instrumented = header->find("instrumented");
  ASSERT_NE(instrumented, nullptr);
  EXPECT_EQ(instrumented->as_bool(), ins::compiled_in());

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto record = JsonValue::parse(lines[i]);
    ASSERT_TRUE(record.has_value()) << lines[i];
    EXPECT_EQ(record->string_at("schema"), "gncg-sweep-metrics-1");
    EXPECT_TRUE(record->find("scenario") != nullptr);
    EXPECT_TRUE(record->find("stream") != nullptr);
    const JsonValue* counters = record->find("counters");
    ASSERT_NE(counters, nullptr) << lines[i];
    // Every counter appears by its stable name; counters are integer event
    // counts and the wall-clock exclusion rule holds (no *_ms keys).
    EXPECT_EQ(counters->members().size(), ins::kCounterCount);
    for (const auto& [key, value] : counters->members()) {
      EXPECT_EQ(key.find("_ms"), std::string::npos) << key;
      EXPECT_TRUE(value.is_number()) << key;
      if (!ins::compiled_in()) EXPECT_EQ(value.as_number(), 0.0) << key;
    }
  }
  std::remove(path.c_str());
}

// --- trace export ---------------------------------------------------------

TEST(Instrument, TraceExportIsWellFormedChromeJson) {
  const std::string trace = temp_path("trace.json");
  SweepPlan plan = metrics_plan();
  plan.scenarios = {"br_certify"};
  plan.extras = {{"settle_rounds", 1.0}};
  plan.seeds = 1;
  SweepRunnerOptions options;
  options.threads = 2;
  options.trace_path = trace;
  const SweepReport report = run_sweep(plan, options);
  ASSERT_EQ(report.executed, 2u);

  const auto parsed = JsonValue::parse(read_file(trace));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  if (!ins::compiled_in()) {
    EXPECT_TRUE(parsed->items().empty());
  } else {
    // At least one complete span per executed job, plus metadata rows.
    std::size_t spans = 0;
    for (const JsonValue& event : parsed->items()) {
      const auto phase = event.string_at("ph");
      ASSERT_TRUE(phase.has_value());
      ASSERT_TRUE(event.find("pid") != nullptr);
      ASSERT_TRUE(event.find("tid") != nullptr);
      if (*phase == "X") {
        ++spans;
        EXPECT_TRUE(event.find("ts") != nullptr);
        EXPECT_TRUE(event.find("dur") != nullptr);
        EXPECT_TRUE(event.find("name") != nullptr);
      }
    }
    EXPECT_GE(spans, report.executed);
  }
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace gncg
