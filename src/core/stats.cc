#include "core/stats.h"

#include <sstream>

namespace mz {
namespace {

double Ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

std::string EvalStats::Snapshot::ToString() const {
  std::ostringstream os;
  os << "client=" << Ms(client_ns) << "ms unprotect=" << Ms(unprotect_ns)
     << "ms planner=" << Ms(planner_ns) << "ms split=" << Ms(split_ns)
     << "ms task=" << Ms(task_ns) << "ms merge=" << Ms(merge_ns)
     << "ms (evals=" << evaluations << " stages=" << stages << " batches=" << batches
     << " nodes=" << nodes_executed << ")";
  if (plan_cache_hits + plan_cache_misses > 0 || serial_evals + pooled_evals > 0) {
    os << " [plans=" << plans_built << " cache " << plan_cache_hits << "/"
       << (plan_cache_hits + plan_cache_misses) << " hit; admission serial=" << serial_evals
       << " pooled=" << pooled_evals << " wait=" << Ms(admission_wait_ns) << "ms]";
    if (plan_cache_evictions > 0) {
      os << " [evicted " << plan_cache_evictions << " plans, "
         << plan_cache_bytes_evicted << "/" << plan_cache_bytes_inserted << " bytes]";
    }
    if (batched_evals > 0) {
      os << " [batched=" << batched_evals;
      if (batch_window_adapted_us > 0) {
        os << ", adaptive window " << batch_window_adapted_us << "us total";
      }
      os << "]";
    }
    if (plan_cache_resident_bytes > 0) {
      os << " [cache resident<=" << plan_cache_resident_bytes << " bytes]";
    }
  }
  if (boundaries_elided > 0) {
    os << " [elided " << boundaries_elided << " boundaries, " << carry_pieces
       << " pieces carried, " << bytes_merge_avoided << " merge bytes avoided"
       << ", chain<=" << carry_chain_len_max;
    if (stages_rebatched > 0) {
      os << ", rebatched " << stages_rebatched << " stages";
    }
    if (deferred_merges > 0) {
      os << ", deferred " << deferred_merges << " merges";
    }
    if (carried_recuts > 0) {
      os << ", recut " << carried_recuts << " carried sets";
    }
    os << "]";
  }
  if (shed_evals + quota_rejects + deadline_evals + cancelled_evals + drained_evals > 0) {
    os << " [shed=" << shed_evals << " quota=" << quota_rejects
       << " deadline=" << deadline_evals << " cancelled=" << cancelled_evals
       << " drained=" << drained_evals << "]";
  }
  if (retries + retry_budget_exhausted + hedges_launched + circuit_opens > 0) {
    os << " [retries=" << retries << " budget_exhausted=" << retry_budget_exhausted
       << " hedges=" << hedges_launched << "/" << hedge_wins << " won"
       << " circuit_opens=" << circuit_opens << "]";
  }
  if (footprint_bytes_max > 0) {
    os << " [max batch footprint " << footprint_bytes_max << " bytes]";
  }
  if (window_firings > 0) {
    os << " [stream " << window_firings << " firings, mean lag "
       << Ms(window_lag_ns / window_firings) << "ms";
    if (incremental_merges > 0) {
      os << ", " << incremental_merges << " incremental merges";
    }
    os << "]";
  }
  return os.str();
}

}  // namespace mz
