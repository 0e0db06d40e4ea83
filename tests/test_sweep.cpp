// Tests for the sweep orchestrator: scenario registry, plan expansion,
// JSONL layer, the runner's determinism/journal/resume contract, the
// aggregation layer, and instance provenance.
//
// The two load-bearing guarantees (ISSUE 3 acceptance):
//   * a plan covering >= 3 registered scenarios x {dense, euclidean, tree}
//     backends runs to completion and its journal is byte-identical
//     (after sorting) for any thread count;
//   * a run killed mid-sweep resumes from the truncated journal without
//     re-running completed jobs and without changing any result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metric/instance_io.hpp"
#include "support/assert.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweep/scenarios_builtin.hpp"

namespace gncg {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "gncg_sweep_" + name;
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

/// The acceptance plan: three host-generic scenarios across all three
/// backend kinds, sized so the runner actually fans out across the pool.
SweepPlan acceptance_plan() {
  SweepPlan plan;
  plan.scenarios = {"br_dynamics", "poa_random", "optimum_gap"};
  plan.hosts = {"dense", "euclidean", "tree"};
  plan.ns = {4, 5};
  plan.alphas = {1.0};
  plan.seeds = 2;
  plan.extras = {{"rounds", 2.0}, {"agents", 4.0}};
  return plan;
}

// --- jsonl ----------------------------------------------------------------

TEST(Jsonl, NumberRoundTripsAtFullPrecision) {
  for (double value : {0.1, 1.0 / 3.0, 12345.6789e-7, -0.0, 2.0}) {
    const std::string text = json_number(value);
    const auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->as_number(), value) << text;
  }
}

TEST(Jsonl, NonFiniteValuesUseStringEncoding) {
  EXPECT_EQ(json_number(kInf), "\"inf\"");
  EXPECT_EQ(json_number(-kInf), "\"-inf\"");
  const auto parsed = JsonValue::parse("\"inf\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(json_to_double(*parsed), kInf);
}

TEST(Jsonl, WriterParserRoundTrip) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("name").string("a \"quoted\"\nvalue");
  writer.key("n").number(42);
  writer.key("list").begin_array().number(1.5).boolean(true).end_array();
  writer.key("nested").begin_object().key("x").number(-3).end_object();
  writer.end_object();
  const auto parsed = JsonValue::parse(writer.str());
  ASSERT_TRUE(parsed.has_value()) << writer.str();
  EXPECT_EQ(parsed->string_at("name"), "a \"quoted\"\nvalue");
  EXPECT_EQ(parsed->number_at("n"), 42.0);
  ASSERT_NE(parsed->find("list"), nullptr);
  EXPECT_EQ(parsed->find("list")->items().size(), 2u);
  EXPECT_EQ(parsed->find("nested")->number_at("x"), -3.0);
}

TEST(Jsonl, TruncatedDocumentsParseToNullopt) {
  const std::string full =
      "{\"a\":1,\"rows\":[{\"metrics\":{\"x\":2.5}}]}";
  ASSERT_TRUE(JsonValue::parse(full).has_value());
  for (std::size_t cut = 1; cut < full.size(); ++cut)
    EXPECT_FALSE(JsonValue::parse(full.substr(0, cut)).has_value())
        << full.substr(0, cut);
  EXPECT_FALSE(JsonValue::parse(full + "x").has_value());
}

// --- registry and plan ----------------------------------------------------

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  const auto names = ScenarioRegistry::instance().names();
  for (const char* expected :
       {"br_dynamics", "fig10_dimension", "fig3_onetwo_poa", "optimum_gap",
        "poa_random"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(ScenarioRegistry, UnknownAndDuplicateNamesAreRejected) {
  EXPECT_THROW(ScenarioRegistry::instance().at("no_such_scenario"),
               ContractViolation);
  ScenarioRegistry isolated;
  register_builtin_scenarios(isolated);
  EXPECT_THROW(register_builtin_scenarios(isolated), ContractViolation);
}

TEST(SweepPlan, ExpansionIsDeterministicAndIndexed) {
  const auto& registry = ScenarioRegistry::instance();
  const auto points = acceptance_plan().expand(registry);
  // 3 scenarios x 3 hosts x 2 n x 1 alpha x 1 p x 2 seeds.
  EXPECT_EQ(points.size(), 36u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].point_index, i);
    EXPECT_EQ(points[i].rng_stream(),
              stream_seed(points[i].scenario, i, points[i].seed));
  }
  const auto again = acceptance_plan().expand(registry);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(point_fingerprint(points[i]), point_fingerprint(again[i]));
  EXPECT_EQ(acceptance_plan().fingerprint(registry),
            acceptance_plan().fingerprint(registry));
}

TEST(SweepPlan, HostFilteringAndNormCollapse) {
  const auto& registry = ScenarioRegistry::instance();
  SweepPlan plan;
  plan.scenarios = {"fig3_onetwo_poa", "fig10_dimension"};
  plan.hosts = {"dense", "euclidean"};
  plan.ns = {2};
  plan.alphas = {0.5};
  plan.norm_ps = {1.0, 2.0};
  // fig3 runs only under dense (1 job: the norm axis collapses off
  // euclidean); fig10 only under euclidean (2 jobs: both norms).
  const auto points = plan.expand(registry);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].scenario, "fig3_onetwo_poa");
  EXPECT_EQ(points[0].host, "dense");
  EXPECT_EQ(points[0].norm_p, 2.0);
  EXPECT_EQ(points[1].scenario, "fig10_dimension");
  EXPECT_EQ(points[1].norm_p, 1.0);
  EXPECT_EQ(points[2].norm_p, 2.0);

  SweepPlan unsupported = plan;
  unsupported.scenarios = {"fig3_onetwo_poa"};
  unsupported.hosts = {"euclidean"};
  EXPECT_THROW(unsupported.expand(registry), ContractViolation);
}

TEST(SweepPlan, UndeclaredExtrasAreRejected) {
  const auto& registry = ScenarioRegistry::instance();
  SweepPlan plan = acceptance_plan();
  plan.extras.emplace_back("round", 5.0);  // typo: br_dynamics wants "rounds"
  EXPECT_THROW(plan.expand(registry), ContractViolation);
}

TEST(SweepPlan, ExtraOrderDoesNotChangeExpansion) {
  const auto& registry = ScenarioRegistry::instance();
  SweepPlan a = acceptance_plan();
  SweepPlan b = acceptance_plan();
  std::reverse(b.extras.begin(), b.extras.end());
  EXPECT_EQ(a.fingerprint(registry), b.fingerprint(registry));
}

TEST(SweepPoint, CountExtrasMustBeIntegersThatFit) {
  // Integers from 0 up to the consuming type's maximum pass; a negative,
  // fractional, oversized or non-finite value contract-fails.
  SweepPoint point;
  point.scenario = "approx_ne";
  const auto count = [&](double value) {
    point.extras = {{"k", value}};
    return point.count_or<int>("k", 7.0);
  };
  EXPECT_EQ(count(0.0), 0);
  EXPECT_EQ(count(2147483647.0), 2147483647);
  point.extras.clear();
  EXPECT_EQ(point.count_or<int>("k", 7.0), 7);
  for (const double bad : {-1.0, 2.5, 2147483648.0, 1e30, std::nan(""),
                           HUGE_VAL})
    EXPECT_THROW(count(bad), ContractViolation) << bad;
  point.extras = {{"k", 1.8446744073709552e19}};  // 2^64
  EXPECT_THROW(point.count_or<std::uint64_t>("k", 0.0), ContractViolation);
  point.extras = {{"k", 4294967296.0}};
  EXPECT_EQ(point.count_or<std::uint64_t>("k", 0.0), 4294967296u);
}

// --- determinism across thread counts (acceptance) ------------------------

TEST(SweepRunner, JournalBytesIdenticalAcrossThreadCounts) {
  const std::string path1 = temp_path("threads1.jsonl");
  const std::string pathN = temp_path("threadsN.jsonl");

  SweepRunnerOptions serial;
  serial.threads = 1;
  serial.journal_path = path1;
  const SweepReport report1 = run_sweep(acceptance_plan(), serial);

  SweepRunnerOptions parallel;
  parallel.threads = 4;
  parallel.journal_path = pathN;
  const SweepReport reportN = run_sweep(acceptance_plan(), parallel);

  EXPECT_EQ(report1.outcomes.size(), 36u);
  EXPECT_EQ(report1.executed, 36u);
  EXPECT_EQ(reportN.executed, 36u);
  EXPECT_EQ(sorted_lines(path1), sorted_lines(pathN));

  // In-memory outcomes agree record-for-record as well (sorted order in
  // the journal is point order in memory).
  for (std::size_t i = 0; i < report1.outcomes.size(); ++i)
    EXPECT_EQ(sweep_record_json(report1.outcomes[i].point,
                                report1.outcomes[i].result),
              sweep_record_json(reportN.outcomes[i].point,
                                reportN.outcomes[i].result));
  std::remove(path1.c_str());
  std::remove(pathN.c_str());
}

TEST(SweepRunner, DynamicsScenariosJournalIdenticallyAcrossThreadCounts) {
  // The restart-driver scenarios (PR 4): scheduler x rule rows must be
  // byte-identical for any thread count, nested pool and all.
  const std::string path1 = temp_path("dyn_threads1.jsonl");
  const std::string pathN = temp_path("dyn_threadsN.jsonl");

  SweepPlan plan;
  plan.scenarios = {"ne_sampling", "fip_probe"};
  plan.hosts = {"dense", "tree"};
  plan.ns = {7};
  plan.alphas = {1.0};
  plan.seeds = 2;
  plan.extras = {{"restarts", 5.0}, {"max_moves", 200.0},
                 {"schedulers", 3.0}, {"rules", 2.0}};

  SweepRunnerOptions serial;
  serial.threads = 1;
  serial.journal_path = path1;
  const SweepReport report1 = run_sweep(plan, serial);

  SweepRunnerOptions parallel;
  parallel.threads = 4;
  parallel.journal_path = pathN;
  const SweepReport reportN = run_sweep(plan, parallel);

  EXPECT_EQ(report1.executed, 8u);  // 2 scenarios x 2 hosts x 2 seeds
  EXPECT_EQ(reportN.executed, 8u);
  EXPECT_EQ(sorted_lines(path1), sorted_lines(pathN));
  std::remove(path1.c_str());
  std::remove(pathN.c_str());
}

TEST(SweepRunner, TimingMetricsAreStrippedFromRecords) {
  SweepPlan plan;
  plan.scenarios = {"br_dynamics"};
  plan.hosts = {"dense"};
  plan.ns = {5};
  plan.extras = {{"rounds", 1.0}, {"agents", 2.0}};
  const SweepReport report = run_sweep(plan, {});
  ASSERT_EQ(report.outcomes.size(), 1u);
  // The scenario reports wall-clock metrics...
  EXPECT_FALSE(std::isnan(
      report.outcomes[0].result.rows[0].metric_or_nan("elapsed_ms")));
  // ...but the canonical record must not contain them...
  const std::string record = sweep_record_json(report.outcomes[0].point,
                                               report.outcomes[0].result);
  EXPECT_EQ(record.find("_ms"), std::string::npos) << record;
  EXPECT_NE(record.find("social_cost"), std::string::npos);
  // ...and neither may aggregation (a resumed run's summary must equal an
  // uninterrupted run's, and restored rows carry no timing).
  for (const auto& aggregate : aggregate_outcomes(report.outcomes))
    EXPECT_FALSE(is_timing_metric(aggregate.metric)) << aggregate.metric;
}

// --- checkpoint / resume --------------------------------------------------

TEST(SweepRunner, ResumesFromTruncatedJournalWithoutRerunningOrChanging) {
  const std::string full_path = temp_path("full.jsonl");
  const std::string cut_path = temp_path("cut.jsonl");

  SweepRunnerOptions options;
  options.threads = 1;
  options.journal_path = full_path;
  const SweepReport full = run_sweep(acceptance_plan(), options);
  const auto full_lines = read_lines(full_path);
  ASSERT_EQ(full_lines.size(), 37u);  // header + 36 records

  // Simulate a kill mid-sweep: header, 11 complete records, and one record
  // truncated mid-write.
  constexpr std::size_t kCompleted = 11;
  {
    std::ofstream cut(cut_path, std::ios::trunc);
    for (std::size_t i = 0; i <= kCompleted; ++i) cut << full_lines[i] << '\n';
    cut << full_lines[kCompleted + 1].substr(
        0, full_lines[kCompleted + 1].size() / 2);
  }

  SweepRunnerOptions resume;
  resume.threads = 4;
  resume.journal_path = cut_path;
  resume.resume = true;
  const SweepReport resumed = run_sweep(acceptance_plan(), resume);

  EXPECT_EQ(resumed.resumed, kCompleted);
  EXPECT_EQ(resumed.executed, 36u - kCompleted);
  std::size_t from_journal = 0;
  for (const auto& outcome : resumed.outcomes)
    from_journal += outcome.from_journal ? 1 : 0;
  EXPECT_EQ(from_journal, kCompleted);

  // Results are unchanged and the compacted journal sorts to the same
  // bytes as the uninterrupted run's.
  for (std::size_t i = 0; i < full.outcomes.size(); ++i)
    EXPECT_EQ(
        sweep_record_json(full.outcomes[i].point, full.outcomes[i].result),
        sweep_record_json(resumed.outcomes[i].point,
                          resumed.outcomes[i].result));
  EXPECT_EQ(sorted_lines(cut_path), sorted_lines(full_path));

  // Resuming a fully written journal re-runs nothing.
  SweepRunnerOptions noop = resume;
  noop.journal_path = full_path;
  const SweepReport nothing = run_sweep(acceptance_plan(), noop);
  EXPECT_EQ(nothing.resumed, 36u);
  EXPECT_EQ(nothing.executed, 0u);

  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(SweepRunner, RefusesToResumeAForeignJournal) {
  const std::string path = temp_path("foreign.jsonl");
  SweepPlan small;
  small.scenarios = {"optimum_gap"};
  small.hosts = {"dense"};
  small.ns = {4};
  SweepRunnerOptions options;
  options.journal_path = path;
  run_sweep(small, options);

  options.resume = true;
  SweepPlan other = small;
  other.ns = {5};
  EXPECT_THROW(run_sweep(other, options), ContractViolation);
  std::remove(path.c_str());
}

// --- aggregation ----------------------------------------------------------

TEST(SweepAggregate, RollsReplicatesIntoGroups) {
  SweepPlan plan;
  plan.scenarios = {"optimum_gap"};
  plan.hosts = {"dense", "tree"};
  plan.ns = {4};
  plan.seeds = 3;
  const SweepReport report = run_sweep(plan, {});
  const auto aggregates = aggregate_outcomes(report.outcomes);

  // 2 groups (hosts) x 6 metrics, each over 3 replicate samples.
  EXPECT_EQ(aggregates.size(), 12u);
  for (const auto& aggregate : aggregates) {
    EXPECT_EQ(aggregate.stats.count(), 3u);
    EXPECT_GE(aggregate.stats.max(), aggregate.stats.median());
    EXPECT_GE(aggregate.stats.median(), aggregate.stats.min());
  }
  // On tree hosts the MST (= the defining tree) is the optimum: gap 1.
  bool saw_tree_gap = false;
  for (const auto& aggregate : aggregates)
    if (aggregate.key.host == "tree" && aggregate.metric == "mst_gap_ratio") {
      saw_tree_gap = true;
      EXPECT_DOUBLE_EQ(aggregate.stats.mean(), 1.0);
    }
  EXPECT_TRUE(saw_tree_gap);

  const ConsoleTable table = aggregate_table(aggregates);
  EXPECT_EQ(table.row_count(), aggregates.size());

  std::ostringstream summary;
  write_summary_jsonl(summary, aggregates);
  std::istringstream lines(summary.str());
  std::string line;
  std::size_t parsed_lines = 0;
  while (std::getline(lines, line)) {
    const auto parsed = JsonValue::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->string_at("schema"), "gncg-sweep-summary-1");
    EXPECT_EQ(parsed->number_at("count"), 3.0);
    ++parsed_lines;
  }
  EXPECT_EQ(parsed_lines, aggregates.size());
}

// --- provenance (instance_io) ---------------------------------------------

TEST(SweepProvenance, DumpedHostRoundTripsWithJobIdentity) {
  const auto& registry = ScenarioRegistry::instance();
  SweepPlan plan;
  plan.scenarios = {"br_dynamics"};
  plan.hosts = {"tree"};
  plan.ns = {6};
  const auto points = plan.expand(registry);
  ASSERT_EQ(points.size(), 1u);

  Rng rng(points[0].rng_stream());
  const auto host = registry.at("br_dynamics").build_host(points[0], rng);
  ASSERT_TRUE(host.has_value());

  const HostProvenance provenance{points[0].scenario, points[0].point_index,
                                  points[0].rng_stream()};
  std::stringstream file;
  save_host(file, *host, &provenance);

  HostProvenance loaded_provenance;
  const HostGraph loaded = load_host(file, &loaded_provenance);
  EXPECT_EQ(loaded_provenance.scenario, "br_dynamics");
  EXPECT_EQ(loaded_provenance.point_index, points[0].point_index);
  EXPECT_EQ(loaded_provenance.stream, points[0].rng_stream());
  ASSERT_EQ(loaded.node_count(), host->node_count());
  for (int u = 0; u < loaded.node_count(); ++u)
    for (int v = 0; v < loaded.node_count(); ++v)
      EXPECT_EQ(loaded.weight(u, v), host->weight(u, v));

  // The rng prefix contract: rebuilding from the stream gives the job's
  // exact instance.
  Rng replay(points[0].rng_stream());
  const HostGraph rebuilt = make_sweep_host(points[0], replay);
  for (int u = 0; u < loaded.node_count(); ++u)
    for (int v = 0; v < loaded.node_count(); ++v)
      EXPECT_EQ(rebuilt.weight(u, v), host->weight(u, v));
}

TEST(SweepProvenance, FilesWithoutExtensionBlockLeaveProvenanceUntouched) {
  std::stringstream file;
  save_host(file, HostGraph::unit(3));
  EXPECT_EQ(file.str().find("x-"), std::string::npos);
  HostProvenance provenance{"unset", 7, 9};
  const HostGraph loaded = load_host(file, &provenance);
  EXPECT_EQ(loaded.node_count(), 3);
  EXPECT_EQ(provenance.scenario, "unset");
  EXPECT_EQ(provenance.point_index, 7u);
}

TEST(SweepProvenance, UnknownExtensionKeysAreSkipped) {
  std::stringstream file;
  save_host(file, HostGraph::unit(3));
  std::string text = file.str();
  const auto model_end = text.find("\nn ");
  ASSERT_NE(model_end, std::string::npos);
  text.insert(model_end + 1, "x-future-key some-value\n");
  std::istringstream patched(text);
  EXPECT_EQ(load_host(patched).node_count(), 3);
}

TEST(SweepProvenance, MalformedExtensionValuesContractFail) {
  std::stringstream file;
  save_host(file, HostGraph::unit(3));
  std::string text = file.str();
  const auto model_end = text.find("\nn ");
  ASSERT_NE(model_end, std::string::npos);
  text.insert(model_end + 1, "x-point not-a-number\n");
  std::istringstream patched(text);
  HostProvenance provenance;
  EXPECT_THROW(load_host(patched, &provenance), ContractViolation);
}

// --- scenario row helpers -------------------------------------------------

TEST(ScenarioRow, LookupHelpers) {
  ScenarioRow row;
  row.metric("a", 1.5).tag("t", "v");
  EXPECT_DOUBLE_EQ(row.metric_or_nan("a"), 1.5);
  EXPECT_TRUE(std::isnan(row.metric_or_nan("missing")));
  EXPECT_EQ(row.tag_or_empty("t"), "v");
  EXPECT_EQ(row.tag_or_empty("missing"), "");
}

}  // namespace
}  // namespace gncg
