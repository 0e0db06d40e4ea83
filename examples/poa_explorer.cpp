// PoA explorer -- a small CLI over the equilibrium-search machinery.
//
// Two modes:
//
// 1. Table mode (positional args, the original interface):
//      poa_explorer [model] [n] [alpha] [seeds]
//        model : one-two | one-inf | tree | plane | metric | general
//                (default metric)
//        n     : number of agents (default 5; exact enumeration needs n <= 5)
//        alpha : edge price factor (default 1.0)
//        seeds : number of random instances (default 3)
//    For each sampled instance the tool reports the exact (or sampled) Price
//    of Anarchy and Stability next to the paper's bound for that model class.
//
// 2. Sweep mode (flag args): scriptable large-n runs, one JSONL record per
//    dynamics round on stdout -- a thin wrapper over the sweep subsystem's
//    `br_dynamics` scenario (src/sweep/, `sweep_runner` is the full CLI).
//      poa_explorer --host <dense|lazy|euclidean|tree> --n <agents>
//                   --seed <seed> [--alpha a] [--rounds r] [--agents k]
//    Per round, the sweep scans `k` evenly spaced agents with the deviation
//    engine's exact best-single-move, applies the improving moves, and
//    emits {host, n, seed, alpha, round, social_cost, agents_scanned,
//    agents_improved, construct_ms, elapsed_ms} -- the same record schema
//    as before the subsystem existed.  The RNG stream now derives from the
//    job identity via stream_seed (uncorrelated across seeds), so recorded
//    values differ from pre-subsystem runs of the same --seed; flags and
//    schema are unchanged.  Euclidean and tree hosts run implicitly (no
//    O(n^2) matrix), so n in the thousands is fine:
//      poa_explorer --host euclidean --n 4096 --seed 7 --rounds 3
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/equilibrium_search.hpp"
#include "core/poa.hpp"
#include "core/social_optimum.hpp"
#include "metric/host_graph.hpp"
#include "metric/tree.hpp"
#include "parse_number.hpp"
#include "support/table.hpp"
#include "sweep/runner.hpp"

using namespace gncg;

namespace {

Game sample_game(const std::string& model, int n, double alpha, Rng& rng) {
  if (model == "one-two") return Game(random_one_two_host(n, 0.5, rng), alpha);
  if (model == "one-inf")
    return Game(random_one_inf_host(n, 0.6, rng), alpha);
  if (model == "tree")
    return Game(HostGraph::from_tree(random_tree(n, rng, 1.0, 8.0)), alpha);
  if (model == "plane")
    return Game(HostGraph::from_points(uniform_points(n, 2, 10.0, rng), 2.0),
                alpha);
  if (model == "general") return Game(random_general_host(n, rng), alpha);
  return Game(random_metric_host(n, rng), alpha);
}

/// The edge price must be positive and finite.  "nan" and "inf" parse as
/// numbers, and a NaN passes an `alpha <= 0` test, so both are checked
/// here before the Game constructor's contract sees them.
bool alpha_ok(const std::string& text, double alpha) {
  if (alpha > 0.0 && std::isfinite(alpha)) return true;
  std::cerr << "alpha must be positive and finite, got '" << text << "'\n";
  return false;
}

bool known_model(const std::string& model) {
  for (const char* name :
       {"one-two", "one-inf", "tree", "plane", "metric", "general"})
    if (model == name) return true;
  return false;
}

double paper_bound(const std::string& model, double alpha) {
  if (model == "general" || model == "one-inf")
    return paper::general_poa_upper(alpha);
  return paper::metric_poa(alpha);
}

int table_mode(const std::string& model, int n, double alpha, int seeds) {
  const bool exact = n <= 5;

  print_banner(std::cout, "PoA explorer: " + model + ", n=" +
                              std::to_string(n) + ", alpha=" +
                              format_double(alpha, 2));
  std::cout << (exact ? "mode: exhaustive NE enumeration + exact optimum\n"
                      : "mode: sampled dynamics + heuristic optimum (n > 5)\n");

  ConsoleTable table({"seed", "#NE", "OPT cost", "PoA", "PoS", "paper bound",
                      "bound holds"});
  Rng rng(20190416);
  for (int seed = 0; seed < seeds; ++seed) {
    const Game game = sample_game(model, n, alpha, rng);
    EquilibriumSet equilibria;
    double opt_cost = 0.0;
    if (exact) {
      equilibria = enumerate_nash_equilibria(game);
      opt_cost = exact_social_optimum(game).cost.total();
    } else {
      SamplingOptions options;
      options.attempts = 20;
      options.seed = rng();
      options.verify_exact_ne = n <= 9;
      equilibria = sample_equilibria(game, options);
      opt_cost = local_search_optimum(game).cost.total();
    }
    const auto estimate = estimate_poa(equilibria, opt_cost, exact);
    table.begin_row()
        .add(seed)
        .add(static_cast<long long>(equilibria.profiles.size()))
        .add(opt_cost, 3)
        .add(estimate.poa, 4)
        .add(estimate.pos, 4)
        .add(paper_bound(model, alpha), 4)
        .add(equilibria.empty()
                 ? "no NE found"
                 : (estimate.poa <= paper_bound(model, alpha) + 1e-6
                        ? "yes"
                        : "NO"));
  }
  table.print(std::cout);
  return 0;
}

// --- sweep (JSONL) mode ---------------------------------------------------

struct SweepOptions {
  std::string host = "euclidean";
  int n = 1024;
  std::uint64_t seed = 1;
  double alpha = 1.0;
  int rounds = 3;
  int agents = 64;  ///< agents scanned per round (evenly spaced)
};

/// One-job plan over the registered br_dynamics scenario: the flags map
/// onto the plan axes (--seed becomes the replicate seed value) and the
/// per-round rows come back from the runner.
int sweep_mode(const SweepOptions& options) {
  if (options.host != "dense" && options.host != "lazy" &&
      options.host != "euclidean" && options.host != "tree") {
    std::cerr << "unknown --host " << options.host
              << " (want dense|lazy|euclidean|tree)\n";
    return 1;
  }
  if (options.n < 2 || options.rounds < 1 || options.agents < 1) {
    std::cerr << "invalid sweep options (need n>=2, rounds>=1, agents>=1)\n";
    return 1;
  }

  SweepPlan plan;
  plan.scenarios = {"br_dynamics"};
  plan.hosts = {options.host};
  plan.ns = {options.n};
  plan.alphas = {options.alpha};
  plan.seeds = 1;
  plan.seed_base = options.seed;
  plan.extras = {{"agents", static_cast<double>(options.agents)},
                 {"rounds", static_cast<double>(options.rounds)}};
  const SweepReport report = run_sweep(plan);

  for (const ScenarioRow& row : report.outcomes.front().result.rows) {
    std::printf(
        "{\"host\":\"%s\",\"n\":%d,\"seed\":%llu,\"alpha\":%.17g,"
        "\"round\":%d,\"social_cost\":%.17g,\"agents_scanned\":%d,"
        "\"agents_improved\":%d,\"construct_ms\":%.3f,\"elapsed_ms\":%.3f}\n",
        options.host.c_str(), options.n,
        static_cast<unsigned long long>(options.seed), options.alpha,
        static_cast<int>(row.metric_or_nan("round")),
        row.metric_or_nan("social_cost"),
        static_cast<int>(row.metric_or_nan("agents_scanned")),
        static_cast<int>(row.metric_or_nan("agents_improved")),
        row.metric_or_nan("construct_ms"), row.metric_or_nan("elapsed_ms"));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flag mode: any --option switches to the JSONL sweep.
  bool sweep = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--", 0) == 0) sweep = true;

  if (sweep) {
    const auto sweep_usage = [] {
      std::cerr << "usage: poa_explorer --host <dense|lazy|euclidean|tree> "
                   "--n <agents> --seed <seed> [--alpha a] [--rounds r] "
                   "[--agents k]\n";
    };
    SweepOptions options;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--help" || flag == "-h") {
        sweep_usage();
        return 0;
      }
      if (i + 1 >= argc) {
        std::cerr << "flag " << flag << " is missing its value\n";
        sweep_usage();
        return 1;
      }
      const std::string value = argv[++i];
      bool parsed = true;
      if (flag == "--host") options.host = value;
      else if (flag == "--n")
        parsed = parse_number(flag, value, "an integer", options.n);
      else if (flag == "--seed")
        parsed = parse_number(flag, value, "an unsigned integer", options.seed);
      else if (flag == "--alpha")
        parsed = parse_number(flag, value, "a number", options.alpha) &&
                 alpha_ok(value, options.alpha);
      else if (flag == "--rounds")
        parsed = parse_number(flag, value, "an integer", options.rounds);
      else if (flag == "--agents")
        parsed = parse_number(flag, value, "an integer", options.agents);
      else {
        std::cerr << "unknown flag " << flag << "\n";
        sweep_usage();
        return 1;
      }
      if (!parsed) {
        sweep_usage();
        return 1;
      }
    }
    return sweep_mode(options);
  }

  const std::string model = argc > 1 ? argv[1] : "metric";
  int n = 5;
  double alpha = 1.0;
  int seeds = 3;
  const bool model_ok = known_model(model);
  if (!model_ok) std::cerr << "unknown model '" << model << "'\n";
  if (!model_ok ||
      (argc > 2 && !parse_number("n", argv[2], "an integer", n)) ||
      (argc > 3 && !(parse_number("alpha", argv[3], "a number", alpha) &&
                     alpha_ok(argv[3], alpha))) ||
      (argc > 4 && !parse_number("seeds", argv[4], "an integer", seeds)) ||
      n < 2 || seeds < 1) {
    std::cerr << "usage: poa_explorer [one-two|one-inf|tree|plane|metric|"
                 "general] [n>=2] [alpha>0] [seeds>=1]\n"
              << "   or: poa_explorer --host <dense|lazy|euclidean|tree> "
                 "--n <agents> --seed <seed>  (JSONL sweep mode)\n";
    return 1;
  }
  return table_mode(model, n, alpha, seeds);
}
