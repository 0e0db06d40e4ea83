#include "graph/incremental_sssp.hpp"

namespace gncg {

void IncrementalSssp::reset(const std::vector<double>& dist) {
  // Same shrink policy as DijkstraBuffers: release capacities left over
  // from a much larger previous search.  Log/queue needs are *decaying peak
  // estimates* -- the estimate is the previous search's peak, floored at
  // half the prior estimate -- so a workload alternating small probes and
  // large floods never shrink-then-regrows, while a genuine downshift
  // still releases within a logarithmic number of resets.
  log_need_ = std::max(log_peak_, log_need_ / 2);
  detail::release_excess(dist_, dist.size());
  detail::release_excess(log_, log_need_);
  queue_.recycle();
  log_peak_ = 0;
  dist_ = dist;
  log_.clear();
}

void IncrementalSssp::rollback(Checkpoint mark) {
  GNCG_DASSERT(mark <= log_.size());
  GNCG_COUNT_N(kSsspRollbackEntries, log_.size() - mark);
  while (log_.size() > mark) {
    const auto& [node, old_dist] = log_.back();
    dist_[static_cast<std::size_t>(node)] = old_dist;
    log_.pop_back();
  }
}

}  // namespace gncg
