#include "graph/improvement_rows.hpp"

#include <limits>

namespace gncg {

void ImprovementRows::resize(std::size_t count) {
  if (entries.size() < count) entries.resize(count);
  for (std::size_t i = size(); i < count; ++i) entries[i].clear();
  frontier.resize(count, kInf);
}

std::size_t ImprovementRows::footprint_bytes() const {
  std::size_t total = frontier.capacity() * sizeof(double);
  for (const auto& row : entries)
    total += row.capacity() * sizeof(std::pair<int, double>);
  return total;
}

void RowFloor::build(const std::vector<double>& host_row,
                     const std::vector<double>& ref,
                     const std::vector<double>& thresholds) {
  host_row_ = &host_row;
  ref_ = &ref;
  sums_.clear();
  for (double theta : thresholds) sums_.emplace_back(theta, 0.0);
  std::sort(sums_.begin(), sums_.end());
  sums_.erase(std::unique(sums_.begin(), sums_.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              sums_.end());
  // Thresholds in blocks of four, each with its own register accumulator,
  // so one pass over the nodes feeds four independent add chains; every sum
  // still adds its terms in increasing node order.
  constexpr std::size_t kBlock = 4;
  for (std::size_t j = 0; j < sums_.size(); j += kBlock) {
    const std::size_t m = std::min(kBlock, sums_.size() - j);
    double theta[kBlock];
    double total[kBlock] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t q = 0; q < kBlock; ++q)
      theta[q] = sums_[j + std::min(q, m - 1)].first;
    for (std::size_t t = 0; t < ref.size(); ++t)
      for (std::size_t q = 0; q < kBlock; ++q)
        total[q] += term(host_row[t], ref[t], theta[q]);
    for (std::size_t q = 0; q < m; ++q) sums_[j + q].second = total[q];
  }
}

double RowFloor::reference_sum(double theta) const {
  const auto it = std::lower_bound(
      sums_.begin(), sums_.end(), theta,
      [](const auto& entry, double key) { return entry.first < key; });
  if (it == sums_.end() || it->first != theta)
    return std::numeric_limits<double>::quiet_NaN();
  return it->second;
}

RowFloor::Interval RowFloor::with_row(
    double theta, const std::vector<std::pair<int, double>>& row) const {
  const std::vector<double>& ref = *ref_;
  const std::vector<double>& host = *host_row_;
  double delta = 0.0;
  for (const auto& [node, d] : row) {
    const auto t = static_cast<std::size_t>(node);
    if (!(d < ref[t])) continue;
    delta += term(host[t], d, theta) - term(host[t], ref[t], theta);
  }
  const double g = reference_sum(theta);
  if (!(g < kInf)) return {-kInf, kInf};  // unknown (NaN) or infinite
  const double slack = 4.0 * static_cast<double>(ref.size() + row.size()) *
                       std::numeric_limits<double>::epsilon() * g;
  const double estimate = g + delta;
  return {estimate - slack, estimate + slack};
}

}  // namespace gncg
