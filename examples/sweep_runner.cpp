// sweep_runner -- the sweep orchestrator CLI.
//
// Expands a scenario x grid plan, executes it on the worker pool with
// journaled checkpointing, and emits aggregated results.
//
//   sweep_runner --list
//       Print every registered scenario with its description, supported
//       host backends and extra parameters.
//
//   sweep_runner --scenario a,b,... [grid flags] [output flags]
//     grid flags:
//       --host dense,euclidean,tree   host backend kinds   (default dense)
//       --n 5,6,8                     size axis            (default 5)
//       --alpha 0.5,1.0               price factors        (default 1.0)
//       --p 2.0                       p-norms, euclidean   (default 2.0)
//       --seeds 3                     replicates per cell  (default 1)
//       --seed-base 0                 first replicate seed (default 0)
//       --set key=value[,key=value]   scenario extras (e.g. rounds=5)
//       --threads 4                   worker threads (0 = hardware)
//     output flags:
//       --journal sweep.jsonl         checkpoint journal (JSONL)
//       --resume                      skip jobs already in the journal
//       --metrics metrics.jsonl       per-job kernel counters (JSONL; pins
//                                     each job to one thread so records are
//                                     thread-count invariant)
//       --trace trace.json            Chrome trace-event spans (load in
//                                     chrome://tracing / ui.perfetto.dev)
//       --out results.jsonl           canonical records, sorted by point
//       --summary summary.jsonl       per-(group, metric) statistics
//       --csv summary.csv             the summary as CSV
//       --table                       print the summary table to stdout
//       --quiet                       no per-job progress on stderr
//
//   sweep_runner --dump-host <point-index> <file> --scenario ... [grid]
//       Rebuild the host instance job <point-index> played on and save it
//       with x-scenario/x-point/x-stream provenance (instance_io format).
//
// Determinism contract: every job's RNG stream is derived from (scenario,
// point_index, seed), so any thread count and any execution order produce
// byte-identical journal records; `sort`ing two journals of the same plan
// yields identical files.  A run killed mid-sweep resumes with --resume:
// completed records are never re-run and a truncated trailing line is
// discarded.  See README "Running sweeps".
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "metric/instance_io.hpp"
#include "parse_number.hpp"
#include "support/table.hpp"
#include "sweep/aggregate.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

using namespace gncg;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int list_scenarios() {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const std::string& name : registry.names()) {
    const Scenario& scenario = registry.at(name);
    std::cout << name << "\n  " << scenario.description() << "\n  hosts:";
    for (const auto& host : scenario.supported_hosts()) std::cout << ' ' << host;
    std::cout << "\n";
    for (const auto& param : scenario.params())
      std::cout << "  param " << param.name << " (default "
                << format_double(param.default_value, 4)
                << "): " << param.description << "\n";
    std::cout << "\n";
  }
  return 0;
}

int usage(int code) {
  std::cerr
      << "usage: sweep_runner --list\n"
         "   or: sweep_runner --scenario a,b [--host kinds] [--n list]\n"
         "       [--alpha list] [--p list] [--seeds k] [--seed-base s]\n"
         "       [--set k=v,...] [--threads t] [--journal file] [--resume]\n"
         "       [--metrics file] [--trace file]\n"
         "       [--out file] [--summary file] [--csv file] [--table]\n"
         "       [--quiet]\n"
         "   or: sweep_runner --dump-host <point> <file> --scenario ...\n"
         "see the header comment of examples/sweep_runner.cpp for details\n";
  return code;
}

struct CliOptions {
  SweepPlan plan;
  SweepRunnerOptions runner;
  std::string out_path;
  std::string summary_path;
  std::string csv_path;
  bool table = false;
  bool quiet = false;
  long long dump_point = -1;
  std::string dump_path;
};

/// Parses a comma-separated list of numbers into `out` (replacing it).
template <typename T>
bool parse_number_list(const std::string& flag, const std::string& csv,
                       const char* kind, std::vector<T>& out) {
  out.clear();
  for (const std::string& item : split_list(csv)) {
    T value{};
    if (!parse_number(flag, item, kind, value)) return false;
    out.push_back(value);
  }
  return true;
}

bool parse_extras(const std::string& csv,
                  std::vector<std::pair<std::string, double>>& extras) {
  for (const std::string& item : split_list(csv)) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::cerr << "--set wants key=value, got '" << item << "'\n";
      return false;
    }
    const std::string key = item.substr(0, eq);
    double value = 0.0;
    if (!parse_number("--set " + key, item.substr(eq + 1), "a number", value))
      return false;
    extras.emplace_back(key, value);
  }
  return true;
}

int dump_host(const CliOptions& options) {
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const auto points = options.plan.expand(registry);
  if (options.dump_point < 0 ||
      options.dump_point >= static_cast<long long>(points.size())) {
    std::cerr << "--dump-host point " << options.dump_point
              << " out of range (plan has " << points.size() << " jobs)\n";
    return 1;
  }
  const SweepPoint& point = points[static_cast<std::size_t>(options.dump_point)];
  Rng rng(point.rng_stream());
  const auto host = registry.at(point.scenario).build_host(point, rng);
  if (!host.has_value()) {
    std::cerr << "scenario " << point.scenario
              << " has no host-shaped instance to dump (closed-form "
                 "construction)\n";
    return 1;
  }
  std::ofstream out(options.dump_path);
  if (!out.is_open()) {
    std::cerr << "cannot open " << options.dump_path << "\n";
    return 1;
  }
  const HostProvenance provenance{point.scenario, point.point_index,
                                  point.rng_stream()};
  save_host(out, *host, &provenance);
  std::cerr << "wrote " << options.dump_path << " (scenario "
            << point.scenario << ", point " << point.point_index << ", host "
            << point.host << ", n " << point.n << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1) return usage(1);

  CliOptions options;
  options.plan.hosts = {"dense"};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return usage(0);
    if (flag == "--list") return list_scenarios();
    if (flag == "--resume") {
      options.runner.resume = true;
      continue;
    }
    if (flag == "--table") {
      options.table = true;
      continue;
    }
    if (flag == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      return usage(1);
    }
    const std::string value = argv[++i];
    bool parsed = true;
    if (flag == "--scenario") options.plan.scenarios = split_list(value);
    else if (flag == "--host") options.plan.hosts = split_list(value);
    else if (flag == "--n")
      parsed = parse_number_list(flag, value, "an integer", options.plan.ns);
    else if (flag == "--alpha")
      parsed = parse_number_list(flag, value, "a number", options.plan.alphas);
    else if (flag == "--p")
      parsed = parse_number_list(flag, value, "a number", options.plan.norm_ps);
    else if (flag == "--seeds")
      parsed = parse_number(flag, value, "an unsigned integer",
                            options.plan.seeds);
    else if (flag == "--seed-base")
      parsed = parse_number(flag, value, "an unsigned integer",
                            options.plan.seed_base);
    else if (flag == "--set")
      parsed = parse_extras(value, options.plan.extras);
    else if (flag == "--threads")
      parsed = parse_number(flag, value, "an unsigned integer",
                            options.runner.threads);
    else if (flag == "--journal") {
      options.runner.journal_path = value;
    } else if (flag == "--metrics") {
      options.runner.metrics_path = value;
    } else if (flag == "--trace") {
      options.runner.trace_path = value;
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--summary") {
      options.summary_path = value;
    } else if (flag == "--csv") {
      options.csv_path = value;
    } else if (flag == "--dump-host") {
      if (!parse_number(flag, value, "an integer", options.dump_point))
        return usage(1);
      if (i + 1 >= argc) {
        std::cerr << "--dump-host wants <point-index> <file>\n";
        return usage(1);
      }
      options.dump_path = argv[++i];
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return usage(1);
    }
    if (!parsed) return usage(1);
  }

  if (options.plan.scenarios.empty()) {
    std::cerr << "--scenario is required (try --list)\n";
    return usage(1);
  }
  if (options.runner.resume && options.runner.journal_path.empty()) {
    std::cerr << "--resume needs --journal\n";
    return usage(1);
  }

  try {
    if (options.dump_point >= 0) return dump_host(options);

    if (!options.quiet) options.runner.progress = &std::cerr;
    const SweepReport report = run_sweep(options.plan, options.runner);

    if (!options.out_path.empty()) {
      std::ofstream out(options.out_path);
      if (!out.is_open()) {
        std::cerr << "cannot open " << options.out_path << "\n";
        return 1;
      }
      write_records_jsonl(out, report.outcomes);
    }

    const auto aggregates = aggregate_outcomes(report.outcomes);
    if (!options.summary_path.empty()) {
      std::ofstream out(options.summary_path);
      if (!out.is_open()) {
        std::cerr << "cannot open " << options.summary_path << "\n";
        return 1;
      }
      write_summary_jsonl(out, aggregates);
    }
    if (!options.csv_path.empty()) {
      std::ofstream out(options.csv_path);
      if (!out.is_open()) {
        std::cerr << "cannot open " << options.csv_path << "\n";
        return 1;
      }
      aggregate_table(aggregates).write_csv(out);
    }
    if (options.table) aggregate_table(aggregates).print(std::cout);

    std::cerr << "[sweep] " << report.outcomes.size() << " jobs ("
              << report.executed << " executed, " << report.resumed
              << " resumed) in " << format_double(report.elapsed_ms, 1)
              << " ms\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "sweep_runner: " << error.what() << "\n";
    return 1;
  }
}
