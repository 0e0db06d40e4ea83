#include "sweep/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "support/assert.hpp"

namespace gncg {

double SweepPoint::extra_or(std::string_view name, double fallback) const {
  for (const auto& [key, value] : extras)
    if (key == name) return value;
  return fallback;
}

double SweepPoint::checked_count(std::string_view name, double fallback,
                                 int bits) const {
  const double value = extra_or(name, fallback);
  GNCG_CHECK(value >= 0.0 && value < std::ldexp(1.0, bits) &&
                 value == std::floor(value),
             scenario << " needs " << name
                      << " to be a non-negative integer below 2^" << bits
                      << ", got " << std::setprecision(17) << value);
  return value;
}

namespace {

/// Canonical double hashing: totally defined by the bit pattern, with +0/-0
/// collapsed so equal values hash equally.
std::uint64_t hash_double(double value) {
  return std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
}

}  // namespace

std::uint64_t point_fingerprint(const SweepPoint& point) {
  std::uint64_t h = hash_string(point.scenario);
  h = hash_combine(h, hash_string(point.host));
  h = hash_combine(h, static_cast<std::uint64_t>(point.n));
  h = hash_combine(h, hash_double(point.alpha));
  h = hash_combine(h, hash_double(point.norm_p));
  h = hash_combine(h, point.seed);
  h = hash_combine(h, point.point_index);
  for (const auto& [name, value] : point.extras) {
    h = hash_combine(h, hash_string(name));
    h = hash_combine(h, hash_double(value));
  }
  return h;
}

std::vector<SweepPoint> SweepPlan::expand(
    const ScenarioRegistry& registry) const {
  GNCG_CHECK(!scenarios.empty(), "sweep plan names no scenarios");
  GNCG_CHECK(!hosts.empty() && !ns.empty() && !alphas.empty() &&
                 !norm_ps.empty() && seeds >= 1,
             "sweep plan has an empty grid axis");

  // Shared extras ride along sorted by name so the expansion (and therefore
  // every derived RNG stream) is independent of flag order.
  auto sorted_extras = extras;
  std::sort(sorted_extras.begin(), sorted_extras.end());
  for (std::size_t i = 1; i < sorted_extras.size(); ++i)
    GNCG_CHECK(sorted_extras[i - 1].first != sorted_extras[i].first,
               "duplicate extra parameter " << sorted_extras[i].first);

  // Every extra must be declared by at least one scenario in the plan: a
  // typo'd key would otherwise fall back to the default inside the scenario
  // while the journal records the typo as applied provenance.
  for (const auto& [extra_name, extra_value] : sorted_extras) {
    (void)extra_value;
    bool declared = false;
    for (const auto& scenario_name : scenarios)
      for (const auto& param : registry.at(scenario_name).params())
        declared = declared || param.name == extra_name;
    GNCG_CHECK(declared, "extra parameter '"
                             << extra_name
                             << "' is not declared by any plan scenario");
  }

  std::vector<SweepPoint> points;
  for (const auto& scenario_name : scenarios) {
    const Scenario& scenario = registry.at(scenario_name);
    const auto& supported = scenario.supported_hosts();
    std::vector<std::string> scenario_hosts;
    for (const auto& host : hosts)
      if (std::find(supported.begin(), supported.end(), host) !=
          supported.end())
        scenario_hosts.push_back(host);
    {
      std::ostringstream supported_list;
      for (const auto& host : supported) supported_list << ' ' << host;
      GNCG_CHECK(!scenario_hosts.empty(),
                 "scenario " << scenario_name
                             << " supports none of the requested hosts "
                                "(supports:"
                             << supported_list.str() << ")");
    }
    for (const auto& host : scenario_hosts) {
      // The p-norm only parameterizes euclidean hosts; every other backend
      // gets one canonical job instead of |norm_ps| duplicates.
      const std::vector<double> host_norms =
          host == "euclidean" ? norm_ps : std::vector<double>{2.0};
      for (const int n : ns)
        for (const double alpha : alphas)
          for (const double norm_p : host_norms)
            for (std::uint64_t s = 0; s < seeds; ++s) {
              SweepPoint point;
              point.scenario = scenario_name;
              point.host = host;
              point.n = n;
              point.alpha = alpha;
              point.norm_p = norm_p;
              point.seed = seed_base + s;
              point.point_index = points.size();
              point.extras = sorted_extras;
              points.push_back(std::move(point));
            }
    }
  }
  return points;
}

std::uint64_t sweep_fingerprint(const std::vector<SweepPoint>& points) {
  std::uint64_t h = hash_string("gncg-sweep-plan");
  h = hash_combine(h, points.size());
  for (const auto& point : points) h = hash_combine(h, point_fingerprint(point));
  return h;
}

std::uint64_t SweepPlan::fingerprint(const ScenarioRegistry& registry) const {
  return sweep_fingerprint(expand(registry));
}

}  // namespace gncg
