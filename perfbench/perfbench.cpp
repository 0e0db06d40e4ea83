// perfbench: the repository benchmark driver.
//
// One process runs one workload through the library's public API as a
// closed loop -- a single caller issuing calls back to back on the shared
// worker pool (at most 4 threads, never more than the machine has):
//
//   br_certify  exact NE certification: full-mode exact_best_response for
//               every agent of 24 settled n = 192 games (dense 1-2 hosts on
//               the dial SSSP kernel, euclidean hosts on the heap).
//   dynamics    best-single-move dynamics on a euclidean n = 256 game from
//               3 recursive-tree starts, under round_robin and then
//               parallel_mgm, cycle detection on, until each run ends.
//   approx_ne   the 10^4 approx-NE tier: approx-ladder dynamics (budget 8,
//               repair cap 256, cycle detection on) for 150 moves, then a
//               batched certificate for 64 evenly spaced agents.
//
// A repetition sets the inputs up from the seed (timed as set-up), runs the
// workload's two phases (timed per phase and per operation, in process CPU
// and wall-clock time) and checks every output.
// Untraced runs repeat until --seconds is used up and report medians over
// repetitions; the traced run (--trace 1) runs one untraced repetition, one
// traced repetition and one on a 1-thread pool, and reports per-layer time
// (the benchmark's own spans) and work (kernel counter deltas).  Every
// repetition of one seed must produce the same determinism digest.
//
// The last line on stdout is the result object; NOTES.md (next to this file)
// defines every metric.
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/approx_br.hpp"
#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/deviation_engine.hpp"
#include "core/dynamics.hpp"
#include "core/profile_gen.hpp"
#include "graph/distance_matrix.hpp"
#include "harness.hpp"
#include "metric/host_graph.hpp"
#include "metric/points.hpp"
#include "support/instrument.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using gncg::BestResponseOptions;
using gncg::BestResponseResult;
using gncg::DeviationEngine;
using gncg::DynamicsOptions;
using gncg::DynamicsResult;
using gncg::Game;
using gncg::HostGraph;
using gncg::Rng;
using gncg::StrategyProfile;

// --- workload parameters -----------------------------------------------------

constexpr int kCertifyN = 192;
/// Instances per repetition.  A euclidean instance's certification cost
/// varies by ~0.23 (CV) from one instance to the next, so the workload
/// averages many of them; dense instances vary far less once settled.
constexpr int kDenseInstances = 6;
constexpr int kEuclidInstances = 18;
constexpr double kDenseAlpha = 256.0;   ///< 1-2 host, p(weight 1) = 0.5
constexpr double kEuclidAlpha = 128.0;  ///< uniform 2-D points, side 1000, p = 2
/// Settle sweeps of best_single_move before certifying.  Dense instances
/// sweep until one sweep moves nobody (they reach a greedy equilibrium in 2-4
/// sweeps): left after 2 sweeps, a seed-dependent handful of unsettled
/// agents ran long improving searches and dominated the spread across seeds.
/// Euclidean instances can cycle under single moves, so they stop at 2.
constexpr int kEuclidSettleSweeps = 2;
constexpr int kDenseSettleSweepCap = 8;

constexpr int kDynamicsN = 256;
constexpr double kDynamicsAlpha = 400.0;
constexpr int kDynamicsStarts = 3;
constexpr std::uint64_t kDynamicsMoveCap = 1000000;  ///< never reached

constexpr int kApproxN = 10000;
constexpr double kApproxAlpha = 100.0;
constexpr int kApproxBudget = 8;
constexpr std::size_t kApproxRepairCap = 256;
constexpr std::uint64_t kApproxMoves = 150;
constexpr int kApproxCertified = 64;
constexpr int kOracleRepeats = 16;  ///< candidate_targets probes per agent

constexpr double kSide = 1000.0;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupRepeatBudgetS = 0.25;
constexpr std::size_t kMaxThreads = 4;

Rng stream(const char* label, std::uint64_t index, std::uint64_t seed) {
  return Rng(gncg::stream_seed(label, index, seed));
}

HostGraph euclid_host(int n, Rng& rng) {
  return HostGraph::from_points(gncg::uniform_points(n, 2, kSide, rng), 2.0);
}

/// Relative agreement at the library's own improvement slack.
bool agrees(double a, double b) {
  return std::abs(a - b) <=
         gncg::kImproveEps * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

// --- one repetition's measurements ----------------------------------------

/// One timed phase of a repetition.  Time is kept twice: wall-clock, and
/// process CPU (every thread), which leaves out the time the machine ran
/// someone else -- see NOTES.md for why the bounded metrics use the latter.
struct Phase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ops = 0.0;  ///< unit operations done in the phase
};

struct RepResult {
  std::vector<double> setup_s;      ///< wall, one entry per set-up
  std::vector<double> setup_cpu_s;  ///< process CPU, one entry per set-up
  Phase a;
  Phase b;
  std::vector<double> op_ms;      ///< unit-operation wall latencies
  std::vector<double> op_cpu_ms;  ///< unit-operation process CPU
  std::vector<double> seq_round_ms;  ///< round_robin commit rounds (wall)
  std::vector<double> mgm_round_ms;  ///< parallel_mgm commit rounds (wall)
  CounterArray counters{};       ///< kernel work over the timed phases
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t disconnected_finals = 0;  ///< runs ending disconnected
  double rss_growth_mb = 0.0;    ///< summed over dynamics runs (sampled reps)
  double max_beta = 0.0;         ///< approx_ne certificate quality
  Digest digest;

  double wall_s() const { return a.wall_s + b.wall_s; }
  double cpu_s() const { return a.cpu_s + b.cpu_s; }
};

/// Times `fn` into `phase` (wall and CPU) and adds its kernel counters.
template <class Fn>
void timed_phase(RepResult& rep, Phase& phase, Fn&& fn) {
  const CounterWindow window;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  fn();
  phase.wall_s += now_s() - t0;
  phase.cpu_s += process_cpu_s() - cpu0;
  accumulate(rep.counters, window.delta());
}

/// Streams a dynamics run: checks every step improves, times commit rounds
/// as the run's unit operations (one child span per round), and samples RSS
/// at round ends when asked.
class RoundObserver final : public gncg::StepObserver {
 public:
  RoundObserver(Tracer& tracer, RepResult& rep, std::vector<double>& round_ms,
                bool sample_rss)
      : tracer_(tracer), rep_(rep), round_ms_(round_ms),
        sample_rss_(sample_rss) {}

  void on_run_start(const DeviationEngine&) override {
    if (sample_rss_) rss_start_ = rss_end_ = rss_mb();
    boundary_ = now_s();
    boundary_cpu_ = process_cpu_s();
  }

  void on_step(const gncg::DynamicsStep& step, std::uint64_t) override {
    if (!gncg::improves(step.new_cost, step.old_cost)) ++non_improving_;
  }

  void on_round_end(std::uint64_t, std::size_t) override {
    const double t = now_s();
    const double cpu = process_cpu_s();
    ++commit_rounds_;
    round_ms_.push_back((t - boundary_) * 1e3);
    rep_.op_ms.push_back(round_ms_.back());
    rep_.op_cpu_ms.push_back((cpu - boundary_cpu_) * 1e3);
    tracer_.add_closed("dynamics", "round", boundary_, t);
    if (sample_rss_) rss_end_ = rss_mb();
    boundary_ = now_s();
    boundary_cpu_ = process_cpu_s();
  }

  std::uint64_t non_improving() const { return non_improving_; }
  std::uint64_t commit_rounds() const { return commit_rounds_; }
  double rss_growth_mb() const { return rss_end_ - rss_start_; }

 private:
  Tracer& tracer_;
  RepResult& rep_;
  std::vector<double>& round_ms_;
  bool sample_rss_;
  double boundary_ = 0.0;
  double boundary_cpu_ = 0.0;
  double rss_start_ = 0.0;
  double rss_end_ = 0.0;
  std::uint64_t non_improving_ = 0;
  std::uint64_t commit_rounds_ = 0;
};

/// Shared post-run checks of a best-single-move dynamics run.
void check_dynamics_run(const Game& game, const DynamicsResult& result,
                        const RoundObserver& observer, const std::string& label,
                        Report& report) {
  report.attempt(result.moves + 1);  // every move, plus the run itself
  if (observer.non_improving() > 0)
    report.fail(label + ": " + std::to_string(observer.non_improving()) +
                " non-improving steps");
  if (!result.converged && !result.cycle_found) {
    report.fail(label + ": did not terminate within the move cap");
    return;
  }
  if (!result.converged) return;
  DeviationEngine engine(game, result.final_profile);
  for (int u = 0; u < game.node_count(); ++u)
    if (engine.has_improving_single_move(u)) {
      report.fail(label + ": reported converged but agent " +
                  std::to_string(u) + " has an improving single move");
      return;
    }
}

// --- workloads -----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs for `seed` (the timed set-up).
  virtual void setup(std::uint64_t seed, Tracer& tracer) = 0;
  /// Runs and checks one repetition on the current inputs.
  virtual void run(RepResult& rep, Tracer& tracer, Report& report,
                   bool sample_rss) = 0;
  /// Traced-run-only probes outside the timed phases.
  virtual void probe(Tracer&) {}
  /// Quantile reported as op_cpu_ms_tail: the highest with at least ten
  /// samples beyond it.
  virtual double tail_quantile() const = 0;
};

// br_certify ------------------------------------------------------------------

class BrCertify final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    dense_.clear();
    euclid_.clear();
    for (int i = 0; i < kDenseInstances; ++i) {
      Rng dense_rng = stream("perfbench/br_certify/dense",
                             static_cast<std::uint64_t>(i), seed);
      HostGraph dense_host =
          gncg::random_one_two_host(kCertifyN, 0.5, dense_rng);
      dense_.push_back(make_instance("dense", std::move(dense_host),
                                     kDenseAlpha, kDenseSettleSweepCap,
                                     dense_rng, tracer));
    }
    for (int i = 0; i < kEuclidInstances; ++i) {
      Rng euclid_rng = stream("perfbench/br_certify/euclid",
                              static_cast<std::uint64_t>(i), seed);
      HostGraph euclid = euclid_host(kCertifyN, euclid_rng);
      euclid_.push_back(make_instance("euclid", std::move(euclid),
                                      kEuclidAlpha, kEuclidSettleSweeps,
                                      euclid_rng, tracer));
    }
  }

  void run(RepResult& rep, Tracer& tracer, Report& report, bool) override {
    for (std::size_t i = 0; i < dense_.size(); ++i)
      certify(dense_[i], i, rep, rep.a, tracer, report);
    for (std::size_t i = 0; i < euclid_.size(); ++i)
      certify(euclid_[i], i, rep, rep.b, tracer, report);
    rep.digest.add_counters("", rep.counters);
  }

  /// 4608 calls.  p98 followed the few heaviest instances of a seed (spread
  /// 0.15 over ten seeds); p95 still leaves 230 calls beyond it.
  double tail_quantile() const override { return 0.95; }

 private:
  struct Instance {
    std::string label;
    std::unique_ptr<Game> game;
    std::unique_ptr<DeviationEngine> engine;
  };

  /// Builds one settled instance: at most `sweeps` best-single-move sweeps,
  /// stopping early after a sweep that moves nobody.
  static Instance make_instance(const std::string& label, HostGraph host,
                                double alpha, int sweeps, Rng& rng,
                                Tracer& tracer) {
    Instance inst{label, std::make_unique<Game>(std::move(host), alpha),
                  nullptr};
    inst.engine = std::make_unique<DeviationEngine>(
        *inst.game, gncg::recursive_tree_profile(*inst.game, rng));
    DeviationEngine& engine = *inst.engine;
    for (bool moved = true; moved && sweeps-- > 0;) {
      const Scope span(tracer, "engine", "settle_sweep/" + label);
      moved = false;
      for (int u = 0; u < kCertifyN; ++u) {
        const gncg::SingleMoveResult move = engine.best_single_move(u);
        if (move.improved) {
          engine.apply_move(u, move.move);
          moved = true;
        }
      }
    }
    {
      const Scope span(tracer, "engine", "warm_distances");
      engine.warm_distances();
    }
    return inst;
  }

  /// Certifies every agent of one instance into `phase`.
  void certify(Instance& inst, std::size_t index, RepResult& rep,
               Phase& phase, Tracer& tracer, Report& report) {
    DeviationEngine& engine = *inst.engine;
    const int n = engine.game().node_count();
    std::vector<BestResponseResult> results(static_cast<std::size_t>(n));
    std::vector<double> incumbents(static_cast<std::size_t>(n));
    const std::string call = "exact_best_response/" + inst.label;
    {
      const Scope span(tracer, "bench", "certify/" + inst.label);
      timed_phase(rep, phase, [&] {
        for (int u = 0; u < n; ++u) {
          const auto i = static_cast<std::size_t>(u);
          BestResponseOptions options;
          options.incumbent = incumbents[i] = engine.agent_cost_warm(u);
          const Scope call_span(tracer, "br_search", call);
          const double cpu0 = process_cpu_s();
          const double t0 = now_s();
          results[i] = gncg::exact_best_response(engine, u, options);
          rep.op_ms.push_back((now_s() - t0) * 1e3);
          rep.op_cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
        }
      });
    }
    phase.ops += n;

    const Scope checks(tracer, "check", "certify/" + inst.label);
    std::uint64_t evaluations = 0;
    std::uint64_t improving = 0;
    double cost_sum = 0.0;
    for (int u = 0; u < n; ++u) {
      const auto i = static_cast<std::size_t>(u);
      const BestResponseResult& br = results[i];
      report.attempt();
      evaluations += br.evaluations;
      const std::string who = inst.label + " " + std::to_string(index) +
                              " agent " + std::to_string(u);
      if (br.cost < gncg::kInf) {
        const double recost = engine.cost_of_strategy(u, br.strategy);
        if (!agrees(recost, br.cost))
          report.fail(who + fmt(": BR cost %.17g != re-cost %.17g", br.cost,
                                recost));
      }
      if (br.improved) {
        ++improving;
        cost_sum += br.cost;
        if (!gncg::improves(br.cost, incumbents[i]))
          report.fail(who + ": reported improved without beating incumbent");
      } else if (engine.has_improving_single_move(u)) {
        report.fail(who + ": BR reports no improvement but a single move "
                          "improves");
      }
    }
    const std::string key = inst.label + "." + std::to_string(index);
    rep.digest.add(key + ".evaluations", evaluations);
    rep.digest.add(key + ".improving_agents", improving);
    rep.digest.add(key + ".improved_cost_sum", cost_sum);
    rep.digest.add(key + ".social_cost",
                   gncg::social_cost(engine.game(), engine.profile()));
  }

  std::vector<Instance> dense_;
  std::vector<Instance> euclid_;
};

// dynamics --------------------------------------------------------------------

class Dynamics final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer&) override {
    Rng rng = stream("perfbench/dynamics/host", 0, seed);
    game_ = std::make_unique<Game>(euclid_host(kDynamicsN, rng),
                                   kDynamicsAlpha);
    starts_.clear();
    for (int k = 0; k < kDynamicsStarts; ++k) {
      Rng start_rng = stream("perfbench/dynamics/start",
                             static_cast<std::uint64_t>(k), seed);
      starts_.push_back(gncg::recursive_tree_profile(*game_, start_rng));
    }
  }

  void run(RepResult& rep, Tracer& tracer, Report& report,
           bool sample_rss) override {
    run_all(gncg::SchedulerKind::kRoundRobin, "round_robin", rep.a,
            rep.seq_round_ms, rep, tracer, report, sample_rss);
    run_all(gncg::SchedulerKind::kParallelMgm, "parallel_mgm", rep.b,
            rep.mgm_round_ms, rep, tracer, report, sample_rss);
    rep.digest.add_counters("", rep.counters);
  }

  double tail_quantile() const override { return 0.98; }  // > 2000 rounds

 private:
  /// Runs every start under one scheduler into `phase`; its unit operation
  /// is a commit round.
  void run_all(gncg::SchedulerKind scheduler, const std::string& name,
               Phase& phase, std::vector<double>& round_ms, RepResult& rep,
               Tracer& tracer, Report& report, bool sample_rss) {
    for (std::size_t k = 0; k < starts_.size(); ++k) {
      RoundObserver observer(tracer, rep, round_ms, sample_rss);
      DynamicsOptions options;
      options.rule = gncg::MoveRule::kBestSingleMove;
      options.scheduler = scheduler;
      options.detect_cycles = true;
      options.max_moves = kDynamicsMoveCap;
      options.record_steps = false;
      options.seed = k + 1;
      options.observer = &observer;
      DynamicsResult result;
      {
        const Scope span(tracer, "dynamics", "run_dynamics/" + name);
        timed_phase(rep, phase, [&] {
          result = gncg::run_dynamics(*game_, starts_[k], options);
        });
      }
      phase.ops += static_cast<double>(observer.commit_rounds());
      rep.moves += result.moves;
      rep.rounds += result.rounds;
      rep.rss_growth_mb += observer.rss_growth_mb();

      const Scope checks(tracer, "check", "dynamics/" + name);
      const std::string label = name + " start " + std::to_string(k);
      check_dynamics_run(*game_, result, observer, label, report);
      const std::string key = name + "." + std::to_string(k);
      rep.digest.add(key + ".moves", result.moves);
      rep.digest.add(key + ".rounds", result.rounds);
      rep.digest.add(key + ".converged",
                     static_cast<std::uint64_t>(result.converged));
      const double social = gncg::social_cost(*game_, result.final_profile);
      if (!(social < gncg::kInf)) ++rep.disconnected_finals;
      rep.digest.add(key + ".social_cost", social);
    }
  }

  std::unique_ptr<Game> game_;
  std::vector<StrategyProfile> starts_;
};

// approx_ne -------------------------------------------------------------------

class ApproxNe final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer&) override {
    Rng rng = stream("perfbench/approx_ne", 0, seed);
    game_ = std::make_unique<Game>(euclid_host(kApproxN, rng), kApproxAlpha);
    start_ = gncg::recursive_tree_profile(*game_, rng);
    agents_.clear();
    for (int i = 0; i < kApproxCertified; ++i)
      agents_.push_back(static_cast<int>(
          (static_cast<long long>(i) * kApproxN) / kApproxCertified));
  }

  void run(RepResult& rep, Tracer& tracer, Report& report,
           bool sample_rss) override {
    const std::uint64_t dense_before =
        gncg::DistanceMatrix::allocated_cells_total();

    RoundObserver observer(tracer, rep, rep.seq_round_ms, sample_rss);
    DynamicsOptions options;
    options.rule = gncg::MoveRule::kApproxLadder;
    options.scheduler = gncg::SchedulerKind::kRoundRobin;
    options.approx_budget = kApproxBudget;
    options.approx_repair_cap = kApproxRepairCap;
    options.detect_cycles = true;
    options.max_moves = kApproxMoves;
    options.record_steps = false;
    options.observer = &observer;
    DynamicsResult result;
    {
      const Scope span(tracer, "dynamics", "run_dynamics/approx_ladder");
      timed_phase(rep, rep.a, [&] {
        result = gncg::run_dynamics(*game_, start_, options);
      });
    }
    rep.a.ops = static_cast<double>(observer.commit_rounds());
    rep.moves = result.moves;
    rep.rounds = result.rounds;
    rep.rss_growth_mb = observer.rss_growth_mb();

    DeviationEngine engine(*game_, result.final_profile);
    gncg::ApproxBrOptions certify_options;
    certify_options.budget = kApproxBudget;
    certify_options.repair_cap = kApproxRepairCap;
    std::vector<gncg::CertifiedAgent> certified;
    {
      const Scope span(tracer, "approx_br", "certify_agents");
      timed_phase(rep, rep.b, [&] {
        certified = gncg::certify_agents(engine, agents_, certify_options);
      });
    }
    rep.b.ops = static_cast<double>(certified.size());

    const Scope checks(tracer, "check", "approx_ne");
    report.attempt(result.moves + certified.size());
    if (observer.non_improving() > 0)
      report.fail(std::to_string(observer.non_improving()) +
                  " non-improving ladder moves");
    if (result.moves != kApproxMoves && !result.converged &&
        !result.cycle_found)
      report.fail("ladder dynamics stopped early without terminating");
    double cost_sum = 0.0;
    double bound_sum = 0.0;
    rep.max_beta = 0.0;
    for (const gncg::CertifiedAgent& ca : certified) {
      const gncg::ApproxBrResult& r = ca.result;
      const double slack = gncg::kImproveEps * std::max(1.0, std::abs(r.cost));
      if (!(r.lower_bound > 0.0) || r.lower_bound > r.cost + slack ||
          r.lower_bound > ca.current_cost + slack)
        report.fail("agent " + std::to_string(ca.agent) +
                    fmt(": certificate lower bound %.17g outside (0, cost "
                        "%.17g] (current %.17g)",
                        r.lower_bound, r.cost, ca.current_cost));
      cost_sum += r.cost;
      bound_sum += r.lower_bound;
      rep.max_beta = std::max(rep.max_beta, ca.current_cost / r.lower_bound);
    }
    if (gncg::DistanceMatrix::allocated_cells_total() != dense_before)
      report.fail("the euclidean path materialized a dense matrix");

    rep.digest.add("moves", result.moves);
    rep.digest.add("rounds", result.rounds);
    rep.digest.add("certified_cost_sum", cost_sum);
    rep.digest.add("certified_lower_bound_sum", bound_sum);
    rep.digest.add("max_beta", rep.max_beta);
    rep.digest.add_counters("", rep.counters);
  }

  void probe(Tracer& tracer) override {
    std::vector<int> out;
    for (int repeat = 0; repeat < kOracleRepeats; ++repeat)
      for (const int u : agents_) {
        const Scope span(tracer, "metric", "candidate_targets");
        game_->host().candidate_targets(u, kApproxBudget, out);
      }
  }

  double tail_quantile() const override { return 0.90; }  // 150 moves

 private:
  std::unique_ptr<Game> game_;
  StrategyProfile start_;
  std::vector<int> agents_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "br_certify") return std::make_unique<BrCertify>();
  if (name == "dynamics") return std::make_unique<Dynamics>();
  if (name == "approx_ne") return std::make_unique<ApproxNe>();
  return nullptr;
}

// --- driver -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      args.trace = value[0] == '1';
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

/// One repetition: (re)builds the inputs unless `reuse_inputs` (the traced
/// run's 1-thread repetition re-runs the traced repetition's inputs), then
/// runs and checks the workload.
RepResult run_rep(Workload& workload, const Args& args, Tracer& tracer,
                  Report& report, bool sample_rss, bool reuse_inputs = false) {
  // Hand the previous repetition's freed heap back to the kernel, so every
  // repetition pays the same page faults a fresh process would (approx_ne's
  // cycle-detection table alone touches ~2 GB).
  malloc_trim(0);
  // Cheap set-ups are repeated (the last one's inputs are used) so their
  // median rests on several samples; an expensive one runs once.
  RepResult rep;
  double spent = 0.0;
  while (!reuse_inputs &&
         (rep.setup_s.empty() || (rep.setup_s.size() < kSetupRepeats &&
                                  spent < kSetupRepeatBudgetS))) {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    workload.setup(args.seed, tracer);
    rep.setup_s.push_back(now_s() - t0);
    rep.setup_cpu_s.push_back(process_cpu_s() - cpu0);
    spent += rep.setup_s.back();
  }
  workload.run(rep, tracer, report, sample_rss);
  return rep;
}

/// Every repetition of one seed must reproduce the first one's digest.
void check_digests(const std::vector<const RepResult*>& reps,
                   Report& report) {
  for (std::size_t i = 1; i < reps.size(); ++i)
    if (reps[i]->digest.json() != reps[0]->digest.json())
      report.fail("determinism digest of repetition " + std::to_string(i) +
                  " differs from repetition 0:\n  " + reps[i]->digest.json() +
                  "\n  vs\n  " + reps[0]->digest.json());
}

void end_to_end_metrics(const Workload& workload,
                        const std::vector<RepResult>& reps, Report& report) {
  std::vector<double> setup, a, b, p50, tail;
  for (const RepResult& rep : reps) {
    setup.insert(setup.end(), rep.setup_cpu_s.begin(), rep.setup_cpu_s.end());
    a.push_back(1e3 * ratio(rep.a.cpu_s, rep.a.ops));
    b.push_back(1e3 * ratio(rep.b.cpu_s, rep.b.ops));
    p50.push_back(quantile(rep.op_cpu_ms, 0.5));
    tail.push_back(quantile(rep.op_cpu_ms, workload.tail_quantile()));
  }
  report.set("setup_s", median(setup), "s");
  report.set("phase_a_cpu_ms_per_op", median(a), "ms");
  report.set("phase_b_cpu_ms_per_op", median(b), "ms");
  report.set("op_cpu_ms_p50", median(p50), "ms");
  report.set("op_cpu_ms_tail", median(tail), "ms");
}

void per_layer_metrics(const Workload& workload, const Tracer& tracer,
                       const RepResult& base, const RepResult& traced,
                       const RepResult& single, std::size_t threads,
                       Report& report) {
  const CounterArray& c = traced.counters;
  const std::map<std::string, double> self = tracer.self_seconds();
  auto self_s = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  std::vector<double> oracle_us = tracer.durations("metric", "candidate_targets");
  for (double& x : oracle_us) x *= 1e6;
  std::vector<double> br_ms = tracer.durations("br_search",
                                               "exact_best_response/dense");
  const std::vector<double> br_euclid =
      tracer.durations("br_search", "exact_best_response/euclid");
  const double br_dense_s = sum(br_ms);
  br_ms.insert(br_ms.end(), br_euclid.begin(), br_euclid.end());
  for (double& x : br_ms) x *= 1e3;
  using C = Counter;
  const double mgm_commits = counter(c, C::kMgmCommits);
  const double mgm_drops = counter(c, C::kMgmConflictDrops);

  // Wall-clock counterparts of the end-to-end metrics (untraced repetition).
  report.set("wall.setup_s", median(base.setup_s), "s");
  report.set("wall.total_s", base.wall_s(), "s");
  report.set("wall.phase_a_ms_per_op", 1e3 * ratio(base.a.wall_s, base.a.ops),
             "ms");
  report.set("wall.phase_b_ms_per_op", 1e3 * ratio(base.b.wall_s, base.b.ops),
             "ms");
  report.set("wall.op_ms_p50", quantile(base.op_ms, 0.5), "ms");
  report.set("wall.op_ms_tail", quantile(base.op_ms, workload.tail_quantile()),
             "ms");
  report.set("cpu.total_s", base.cpu_s(), "s");
  report.set("memory.peak_rss_mb", peak_rss_mb(), "MB");
  report.set("metric.oracle_us_p50", quantile(oracle_us, 0.5), "us");
  report.set("metric.self_s", self_s("metric"), "s");
  report.set("graph.dial_relaxations", counter(c, C::kSsspDialRelaxations),
             "count");
  report.set("graph.heap_relaxations", counter(c, C::kSsspHeapRelaxations),
             "count");
  report.set("graph.repair_relaxations",
             counter(c, C::kSsspRepairRelaxations), "count");
  report.set("graph.rollback_entries", counter(c, C::kSsspRollbackEntries),
             "count");
  report.set("graph.truncation_ratio",
             ratio(counter(c, C::kSsspBoundedTruncations),
                   counter(c, C::kSsspBoundedRepairs)),
             "ratio");
  report.set("engine.warm_s", sum(tracer.durations("engine", "warm_distances")),
             "s");
  report.set("engine.self_s", self_s("engine"), "s");
  report.set("engine.cache_misses", counter(c, C::kEngineCacheMisses),
             "count");
  report.set("engine.hit_ratio",
             ratio(counter(c, C::kEngineCacheHits),
                   counter(c, C::kEngineCacheHits) +
                       counter(c, C::kEngineCacheMisses)),
             "ratio");
  report.set("engine.epoch_bumps", counter(c, C::kEngineEpochBumps), "count");
  report.set("br_search.call_ms_p50", quantile(br_ms, 0.5), "ms");
  report.set("br_search.call_ms_p98", quantile(br_ms, 0.98), "ms");
  report.set("br_search.dense_s", br_dense_s, "s");
  report.set("br_search.euclid_s", sum(br_euclid), "s");
  report.set("br_search.self_s", self_s("br_search"), "s");
  report.set("br_search.expansions", counter(c, C::kBrExpansions), "count");
  report.set("br_search.evaluations", counter(c, C::kBrEvaluations), "count");
  report.set("br_search.prune_ratio",
             ratio(counter(c, C::kBrPrunesGlobal) +
                       counter(c, C::kBrPrunesPerNode),
                   counter(c, C::kBrExpansions)),
             "ratio");
  report.set("approx_br.calls", counter(c, C::kLadderCalls), "count");
  report.set("approx_br.tier2_share",
             ratio(counter(c, C::kLadderTier2Final),
                   counter(c, C::kLadderCalls)),
             "ratio");
  report.set("approx_br.escape_exact", counter(c, C::kLadderEscapeExact),
             "count");
  report.set("approx_br.bounded_probes", counter(c, C::kLadderBoundedProbes),
             "count");
  report.set("approx_br.max_beta", traced.max_beta, "ratio");
  report.set("approx_br.self_s", self_s("approx_br"), "s");
  report.set("dynamics.moves", static_cast<double>(traced.moves), "count");
  report.set("dynamics.rounds", static_cast<double>(traced.rounds), "count");
  report.set("dynamics.round_ms_p50", quantile(traced.seq_round_ms, 0.5),
             "ms");
  report.set("dynamics.round_ms_p90", quantile(traced.seq_round_ms, 0.9),
             "ms");
  report.set("dynamics.mgm_round_ms_p50", quantile(traced.mgm_round_ms, 0.5),
             "ms");
  report.set("dynamics.commits_per_round",
             ratio(mgm_commits, counter(c, C::kMgmRounds)), "ratio");
  report.set("dynamics.mgm_conflict_drop_ratio",
             ratio(mgm_drops, mgm_commits + mgm_drops), "ratio");
  report.set("dynamics.tt_probes", counter(c, C::kTtProbes), "count");
  report.set("dynamics.disconnected_finals",
             static_cast<double>(traced.disconnected_finals), "count");
  report.set("dynamics.rss_mb_per_move",
             ratio(base.rss_growth_mb, static_cast<double>(base.moves)),
             "MB/move");
  report.set("dynamics.self_s", self_s("dynamics"), "s");
  report.set("parallel.cpu_util",
             ratio(base.cpu_s(), base.wall_s() * static_cast<double>(threads)),
             "ratio");
  report.set("parallel.regions", counter(c, C::kPoolRegions), "count");
  report.set("parallel.tasks", counter(c, C::kPoolTasks), "count");
  report.set("parallel.speedup_1t", ratio(single.wall_s(), base.wall_s()),
             "ratio");
  report.set("arena.peak_bytes",
             static_cast<double>(
                 gncg::instrument::metrics_snapshot().arena_peak_footprint_bytes),
             "bytes");
  report.set("trace.overhead_pct",
             100.0 * ratio(traced.wall_s() - base.wall_s(), base.wall_s()),
             "%");
}

std::string provenance_json(const Args& args, std::size_t threads) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"pool_threads\": %zu, \"build_type\": \"%s\", "
      "\"instrument_compiled_in\": %s}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      threads, gncg::bench::build_type(),
      gncg::instrument::compiled_in() ? "true" : "false");
  return buf;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (br_certify, "
                         "dynamics, approx_ne)\n",
                 args.workload.c_str());
    return 1;
  }
  const std::size_t threads = std::min<std::size_t>(
      kMaxThreads, std::max(1u, std::thread::hardware_concurrency()));
  gncg::set_default_thread_count(threads);
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");

  Report report;
  Tracer tracer;
  std::vector<RepResult> reps;
  const double started = now_s();
  if (!args.trace) {
    // Repeat until the time is used up (at least twice, so the digest is
    // compared); a repetition starts only if it should finish in time.
    while (reps.size() < 2 ||
           (now_s() - started) * (1.0 + 1.0 / static_cast<double>(reps.size())) <=
               args.seconds)
      reps.push_back(run_rep(*workload, args, tracer, report, false));
    std::vector<const RepResult*> all;
    for (const RepResult& rep : reps) all.push_back(&rep);
    check_digests(all, report);
    end_to_end_metrics(*workload, reps, report);
  } else {
    reps.push_back(run_rep(*workload, args, tracer, report, true));
    gncg::instrument::start_tracing();
    tracer.set_enabled(true);
    reps.push_back(run_rep(*workload, args, tracer, report, false));
    workload->probe(tracer);
    tracer.set_enabled(false);
    gncg::instrument::stop_tracing(stem + "-library-trace.json.tmp");
    std::filesystem::rename(stem + "-library-trace.json.tmp",
                            stem + "-library-trace.json");
    write_atomically(stem + "-spans.json", tracer.chrome_json());
    gncg::set_default_thread_count(1);
    reps.push_back(run_rep(*workload, args, tracer, report, false, true));
    gncg::set_default_thread_count(threads);
    check_digests({&reps[0], &reps[1], &reps[2]}, report);
    per_layer_metrics(*workload, tracer, reps[0], reps[1], reps[2], threads,
                      report);
  }

  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    reps_json += (i ? ",\n    " : "\n    ") +
                 fmt("{\"setup_s\": %.6f, \"setup_cpu_s\": %.6f, ",
                     median(r.setup_s), median(r.setup_cpu_s)) +
                 fmt("\"a\": {\"wall_s\": %.6f, \"cpu_s\": %.6f, "
                     "\"ops\": %.0f}, ",
                     r.a.wall_s, r.a.cpu_s, r.a.ops) +
                 fmt("\"b\": {\"wall_s\": %.6f, \"cpu_s\": %.6f, "
                     "\"ops\": %.0f}, ",
                     r.b.wall_s, r.b.cpu_s, r.b.ops) +
                 fmt("\"op_cpu_ms\": {\"p50\": %.4f, \"p90\": %.4f, "
                     "\"p95\": %.4f, ",
                     quantile(r.op_cpu_ms, 0.5), quantile(r.op_cpu_ms, 0.9),
                     quantile(r.op_cpu_ms, 0.95)) +
                 fmt("\"p98\": %.4f, \"p99\": %.4f}, ",
                     quantile(r.op_cpu_ms, 0.98), quantile(r.op_cpu_ms, 0.99)) +
                 "\"digest\": " + r.digest.json() + "}";
  }
  reps_json += "\n  ]";
  std::string failures_json = "[";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    std::string msg;
    for (const char ch : report.failures()[i])
      msg += ch == '"' || ch == '\\' ? std::string("\\") + ch
             : ch == '\n'            ? std::string(" ")
                                     : std::string(1, ch);
    failures_json += (i ? ", \"" : "\"") + msg + "\"";
  }
  failures_json += "]";
  const double failed_frac = static_cast<double>(report.failed()) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 report.attempted(), 1));
  const std::string record =
      "{\n  \"provenance\": " + provenance_json(args, threads) +
      ",\n  \"wall_s\": " + fmt("%.3f", now_s() - started) +
      ",\n  \"failed_frac\": " + fmt("%.6g", failed_frac) +
      ",\n  \"failures\": " + failures_json +
      ",\n  \"repetitions\": " + reps_json +
      ",\n  \"result\": " + report.result_line() + "\n}\n";
  if (!write_atomically(stem + ".json", record))
    std::fprintf(stderr, "perfbench: could not write %s.json\n", stem.c_str());

  std::fprintf(stderr, "perfbench: %s seed %llu: %zu repetitions, %llu/%llu "
                       "checks failed, digest %s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), reps.size(),
               static_cast<unsigned long long>(report.failed()),
               static_cast<unsigned long long>(report.attempted()),
               reps.front().digest.json().c_str());
  std::printf("%s\n", report.result_line().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload br_certify|dynamics|approx_ne "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    return 1;
  }
  if (!gncg::bench::require_release(false, "perfbench")) return 2;
  return perfbench::run(args);
}
