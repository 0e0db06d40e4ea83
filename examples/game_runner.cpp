// game_runner -- file-driven game solving (the batch/scripting interface).
//
// Usage:
//   game_runner <host-file> <alpha> [--rule br|single|umfl] [--seed S]
//               [--out profile.txt] [--dot equilibrium.dot]
//
// Reads a host graph in the gncg text format (see metric/instance_io.hpp),
// runs dynamics to an equilibrium, prints a report, and optionally writes
// the equilibrium profile and a Graphviz rendering.  With no host file
// argument, a demo instance is generated and its serialized form printed,
// so the tool is self-documenting:
//   game_runner --demo > host.txt && game_runner host.txt 2.0 --dot eq.dot
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "graph/graph_algos.hpp"
#include "metric/host_graph.hpp"
#include "metric/instance_io.hpp"
#include "parse_number.hpp"
#include "support/dot.hpp"
#include "support/table.hpp"

using namespace gncg;

namespace {

int run_demo() {
  Rng rng(7);
  const auto host = random_metric_host(8, rng);
  save_host(std::cout, host);
  return 0;
}

/// Writes one output file; on a file that cannot be opened or written,
/// prints "cannot write <path>" and returns false.
template <class Write>
bool write_file(const std::string& path, Write&& write) {
  std::ofstream file(path);
  write(file);
  file.close();
  if (file) return true;
  std::cerr << "cannot write " << path << "\n";
  return false;
}

int usage() {
  std::cerr << "usage: game_runner <host-file> <alpha> [--rule br|single|"
               "umfl] [--seed S] [--out profile.txt] [--dot file.dot]\n"
               "       game_runner --demo   (prints a sample host file)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--demo") return run_demo();
  if (argc < 3) return usage();
  const std::string host_path = argv[1];
  double alpha = 0.0;
  if (!parse_number("alpha", argv[2], "a number", alpha)) return usage();
  if (!(alpha > 0.0) || !std::isfinite(alpha)) {
    std::cerr << "alpha must be positive and finite, got '" << argv[2]
              << "'\n";
    return usage();
  }
  MoveRule rule = MoveRule::kBestResponse;
  std::uint64_t seed = 1;
  std::string out_path, dot_path;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      return usage();
    }
    const std::string value = argv[++i];
    if (flag == "--rule") {
      if (value == "single") rule = MoveRule::kBestSingleMove;
      else if (value == "umfl") rule = MoveRule::kUmflResponse;
      else if (value != "br") {
        std::cerr << "unknown rule: " << value << "\n";
        return usage();
      }
    } else if (flag == "--seed") {
      if (!parse_number(flag, value, "an unsigned integer", seed))
        return usage();
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--dot") {
      dot_path = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return usage();
    }
  }

  std::ifstream host_file(host_path);
  if (!host_file) {
    std::cerr << "cannot open " << host_path << "\n";
    return 1;
  }
  const HostGraph host = load_host(host_file);
  const Game game(host, alpha);
  std::cout << "host: " << host.node_count() << " nodes, detected class "
            << model_name(host.classify()) << "\n";

  Rng rng(seed);
  DynamicsOptions options;
  options.rule = rule;
  options.max_moves = 20000;
  options.seed = rng();
  const auto run = run_dynamics(game, random_profile(game, rng), options);
  std::cout << "dynamics: "
            << (run.converged
                    ? "converged"
                    : (run.cycle_found ? "cycle detected" : "move budget hit"))
            << " after " << run.moves << " moves\n";

  const auto& profile = run.final_profile;
  const auto cost = social_cost_breakdown(game, profile);
  const auto network = built_graph(game, profile);
  std::cout << "result: " << network.edge_count() << " edges, "
            << (is_tree(network) ? "tree" : "non-tree") << ", social cost "
            << format_double(cost.total(), 3) << " (edges "
            << format_double(cost.edge_cost, 3) << " + distances "
            << format_double(cost.dist_cost, 3) << ")\n";
  if (game.node_count() <= 12)
    std::cout << "exact NE: "
              << (is_nash_equilibrium(game, profile) ? "yes" : "no") << "\n";

  bool written = true;
  if (!out_path.empty()) {
    if (write_file(out_path,
                   [&](std::ostream& out) { save_profile(out, profile); }))
      std::cout << "profile written to " << out_path << "\n";
    else
      written = false;
  }
  if (!dot_path.empty()) {
    if (write_file(dot_path,
                   [&](std::ostream& dot) { write_dot(dot, game, profile); }))
      std::cout << "DOT written to " << dot_path << "\n";
    else
      written = false;
  }
  return written ? 0 : 1;
}
