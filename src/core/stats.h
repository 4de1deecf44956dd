// Runtime phase accounting, reproducing the paper's Fig. 5 breakdown:
// client (task registration), unprotect (lazy-heap memory permission flips),
// planner, split, task execution, and merge time — plus serving-layer
// counters (plan-cache hits/misses, admission decisions) for the concurrent
// multi-session runtime.
//
// Every counter is an atomic, so one EvalStats may be written concurrently
// by the executor's workers and by many client threads; aggregation across
// sessions uses plain-value Snapshots (Take) folded with Add.
#ifndef MOZART_CORE_STATS_H_
#define MOZART_CORE_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

namespace mz {

class EvalStats {
 public:
  // Plain-value snapshot for reporting.
  struct Snapshot {
    std::int64_t client_ns = 0;
    std::int64_t unprotect_ns = 0;
    std::int64_t planner_ns = 0;
    std::int64_t split_ns = 0;
    std::int64_t task_ns = 0;
    std::int64_t merge_ns = 0;
    std::int64_t evaluations = 0;
    std::int64_t stages = 0;
    std::int64_t batches = 0;
    std::int64_t nodes_executed = 0;
    // Serving layer (see plan_cache.h / session.h).
    std::int64_t plans_built = 0;        // Planner::Build actually ran
    std::int64_t plan_cache_hits = 0;    // evaluation reused a cached plan
    std::int64_t plan_cache_misses = 0;  // evaluation had to plan
    std::int64_t serial_evals = 0;       // admission ran the plan on the caller
    std::int64_t pooled_evals = 0;       // admission took a shared-pool token
    std::int64_t admission_wait_ns = 0;  // time blocked waiting for a token
    // Plan-cache residency pressure: what this session's inserts displaced
    // (plan_cache.h PlanCacheInsertOutcome).
    std::int64_t plan_cache_evictions = 0;
    std::int64_t plan_cache_bytes_inserted = 0;
    std::int64_t plan_cache_bytes_evicted = 0;
    // Small evaluations coalesced through the BatchCollector (batch.h).
    // Batched evals also count as serial_evals: they are the inline class,
    // just dispatched together, so serial + pooled still equals evaluations.
    std::int64_t batched_evals = 0;
    // Stage-boundary piece passing (executor.h): buffers whose merge and
    // re-split were elided, the pieces handed across those boundaries, and
    // the merge traffic (best-effort bytes) the elisions avoided.
    std::int64_t boundaries_elided = 0;
    std::int64_t carry_pieces = 0;
    std::int64_t bytes_merge_avoided = 0;
    // Footprint-aware per-stage batching (ISSUE 5): stages whose carried
    // pieces were re-cut to the consumer's granularity, boundary merges
    // parked on slots for lazy merge-on-get, the longest chain of
    // consecutive carried boundaries one stream travelled, and the largest
    // per-batch working set (batch × Σ bytes-per-element) any stage ran
    // with. The last two aggregate by max, not sum.
    std::int64_t stages_rebatched = 0;
    std::int64_t deferred_merges = 0;
    std::int64_t carry_chain_len_max = 0;
    std::int64_t footprint_bytes_max = 0;
    // Carried piece sets re-cut in place because their ranges provably
    // tiled the stream (the coverage-aware alternative to materialize +
    // re-split).
    std::int64_t carried_recuts = 0;
    // Always 0, and never counted: the executor runs one stage at a time and
    // forms no overlapped multi-stage regions. The snapshot field stays only
    // because perfbench still reads it (executor.pipeline_regions_per_eval).
    std::int64_t pipeline_regions = 0;
    // Streaming/windowed execution (ISSUE 7, stream.h): window firings
    // evaluated through Runtime::EvalStream, wall time from each window's
    // assembly to its firing's completion (per-window latency; summed —
    // divide by window_firings for the mean), and reduction partials folded
    // pairwise into stream accumulators instead of re-merged from scratch.
    std::int64_t window_firings = 0;
    std::int64_t window_lag_ns = 0;
    std::int64_t incremental_merges = 0;
    // Serving hardening (ISSUE 8): total effective window chosen by adaptive
    // BatchCollector leaders (µs — compare against dispatches × window_us to
    // see what lone clients stopped paying), and the largest allocator-true
    // plan-cache residency this session's inserts observed (bytes; max-
    // aggregated like footprint_bytes_max).
    std::int64_t batch_window_adapted_us = 0;
    std::int64_t plan_cache_true_bytes = 0;
    // Request-lifecycle outcomes (ISSUE 9): evaluations rejected up front
    // because the admission backlog already exceeded their deadline (shed)
    // or because the tenant's rate quota was exhausted (quota), and
    // evaluations that stopped on deadline expiry / explicit cancellation
    // (in the gate's wait queue or mid-execution). None of these count in
    // `evaluations` — they never completed.
    std::int64_t shed_evals = 0;
    std::int64_t quota_rejects = 0;
    std::int64_t deadline_evals = 0;
    std::int64_t cancelled_evals = 0;
    // Client resilience (ISSUE 10, resilience.h): retries the ResilientClient
    // actually launched (each one debits a retry-budget token), requests that
    // wanted a retry but found the budget empty (rethrown instead), hedges
    // launched / hedges that beat the primary, circuit-breaker open
    // transitions this client observed, and evaluations rejected because the
    // serving context was draining (OverloadError{kDraining}).
    std::int64_t retries = 0;
    std::int64_t retry_budget_exhausted = 0;
    std::int64_t hedges_launched = 0;
    std::int64_t hedge_wins = 0;
    std::int64_t circuit_opens = 0;
    std::int64_t drained_evals = 0;

    // Total across the per-phase wall-clock counters. Split/task/merge are
    // summed across workers, so on N threads this exceeds elapsed time.
    // Admission wait is queueing, not work, and is excluded.
    std::int64_t TotalNs() const {
      return client_ns + unprotect_ns + planner_ns + split_ns + task_ns + merge_ns;
    }

    // Folds another snapshot into this one (aggregation across sessions).
    void Add(const Snapshot& other) {
      client_ns += other.client_ns;
      unprotect_ns += other.unprotect_ns;
      planner_ns += other.planner_ns;
      split_ns += other.split_ns;
      task_ns += other.task_ns;
      merge_ns += other.merge_ns;
      evaluations += other.evaluations;
      stages += other.stages;
      batches += other.batches;
      nodes_executed += other.nodes_executed;
      plans_built += other.plans_built;
      plan_cache_hits += other.plan_cache_hits;
      plan_cache_misses += other.plan_cache_misses;
      serial_evals += other.serial_evals;
      pooled_evals += other.pooled_evals;
      admission_wait_ns += other.admission_wait_ns;
      plan_cache_evictions += other.plan_cache_evictions;
      plan_cache_bytes_inserted += other.plan_cache_bytes_inserted;
      plan_cache_bytes_evicted += other.plan_cache_bytes_evicted;
      batched_evals += other.batched_evals;
      boundaries_elided += other.boundaries_elided;
      carry_pieces += other.carry_pieces;
      bytes_merge_avoided += other.bytes_merge_avoided;
      stages_rebatched += other.stages_rebatched;
      deferred_merges += other.deferred_merges;
      carry_chain_len_max = std::max(carry_chain_len_max, other.carry_chain_len_max);
      footprint_bytes_max = std::max(footprint_bytes_max, other.footprint_bytes_max);
      carried_recuts += other.carried_recuts;
      window_firings += other.window_firings;
      window_lag_ns += other.window_lag_ns;
      incremental_merges += other.incremental_merges;
      batch_window_adapted_us += other.batch_window_adapted_us;
      plan_cache_true_bytes = std::max(plan_cache_true_bytes, other.plan_cache_true_bytes);
      shed_evals += other.shed_evals;
      quota_rejects += other.quota_rejects;
      deadline_evals += other.deadline_evals;
      cancelled_evals += other.cancelled_evals;
      retries += other.retries;
      retry_budget_exhausted += other.retry_budget_exhausted;
      hedges_launched += other.hedges_launched;
      hedge_wins += other.hedge_wins;
      circuit_opens += other.circuit_opens;
      drained_evals += other.drained_evals;
    }

    std::string ToString() const;
  };

  Snapshot Take() const {
    Snapshot s;
    s.client_ns = client_ns.load(std::memory_order_relaxed);
    s.unprotect_ns = unprotect_ns.load(std::memory_order_relaxed);
    s.planner_ns = planner_ns.load(std::memory_order_relaxed);
    s.split_ns = split_ns.load(std::memory_order_relaxed);
    s.task_ns = task_ns.load(std::memory_order_relaxed);
    s.merge_ns = merge_ns.load(std::memory_order_relaxed);
    s.evaluations = evaluations.load(std::memory_order_relaxed);
    s.stages = stages.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.nodes_executed = nodes_executed.load(std::memory_order_relaxed);
    s.plans_built = plans_built.load(std::memory_order_relaxed);
    s.plan_cache_hits = plan_cache_hits.load(std::memory_order_relaxed);
    s.plan_cache_misses = plan_cache_misses.load(std::memory_order_relaxed);
    s.serial_evals = serial_evals.load(std::memory_order_relaxed);
    s.pooled_evals = pooled_evals.load(std::memory_order_relaxed);
    s.admission_wait_ns = admission_wait_ns.load(std::memory_order_relaxed);
    s.plan_cache_evictions = plan_cache_evictions.load(std::memory_order_relaxed);
    s.plan_cache_bytes_inserted = plan_cache_bytes_inserted.load(std::memory_order_relaxed);
    s.plan_cache_bytes_evicted = plan_cache_bytes_evicted.load(std::memory_order_relaxed);
    s.batched_evals = batched_evals.load(std::memory_order_relaxed);
    s.boundaries_elided = boundaries_elided.load(std::memory_order_relaxed);
    s.carry_pieces = carry_pieces.load(std::memory_order_relaxed);
    s.bytes_merge_avoided = bytes_merge_avoided.load(std::memory_order_relaxed);
    s.stages_rebatched = stages_rebatched.load(std::memory_order_relaxed);
    s.deferred_merges = deferred_merges.load(std::memory_order_relaxed);
    s.carry_chain_len_max = carry_chain_len_max.load(std::memory_order_relaxed);
    s.footprint_bytes_max = footprint_bytes_max.load(std::memory_order_relaxed);
    s.carried_recuts = carried_recuts.load(std::memory_order_relaxed);
    s.window_firings = window_firings.load(std::memory_order_relaxed);
    s.window_lag_ns = window_lag_ns.load(std::memory_order_relaxed);
    s.incremental_merges = incremental_merges.load(std::memory_order_relaxed);
    s.batch_window_adapted_us = batch_window_adapted_us.load(std::memory_order_relaxed);
    s.plan_cache_true_bytes = plan_cache_true_bytes.load(std::memory_order_relaxed);
    s.shed_evals = shed_evals.load(std::memory_order_relaxed);
    s.quota_rejects = quota_rejects.load(std::memory_order_relaxed);
    s.deadline_evals = deadline_evals.load(std::memory_order_relaxed);
    s.cancelled_evals = cancelled_evals.load(std::memory_order_relaxed);
    s.retries = retries.load(std::memory_order_relaxed);
    s.retry_budget_exhausted = retry_budget_exhausted.load(std::memory_order_relaxed);
    s.hedges_launched = hedges_launched.load(std::memory_order_relaxed);
    s.hedge_wins = hedge_wins.load(std::memory_order_relaxed);
    s.circuit_opens = circuit_opens.load(std::memory_order_relaxed);
    s.drained_evals = drained_evals.load(std::memory_order_relaxed);
    return s;
  }

  // Folds a snapshot into the live counters (used by ServingContext when a
  // session retires).
  void Accumulate(const Snapshot& s) {
    client_ns.fetch_add(s.client_ns, std::memory_order_relaxed);
    unprotect_ns.fetch_add(s.unprotect_ns, std::memory_order_relaxed);
    planner_ns.fetch_add(s.planner_ns, std::memory_order_relaxed);
    split_ns.fetch_add(s.split_ns, std::memory_order_relaxed);
    task_ns.fetch_add(s.task_ns, std::memory_order_relaxed);
    merge_ns.fetch_add(s.merge_ns, std::memory_order_relaxed);
    evaluations.fetch_add(s.evaluations, std::memory_order_relaxed);
    stages.fetch_add(s.stages, std::memory_order_relaxed);
    batches.fetch_add(s.batches, std::memory_order_relaxed);
    nodes_executed.fetch_add(s.nodes_executed, std::memory_order_relaxed);
    plans_built.fetch_add(s.plans_built, std::memory_order_relaxed);
    plan_cache_hits.fetch_add(s.plan_cache_hits, std::memory_order_relaxed);
    plan_cache_misses.fetch_add(s.plan_cache_misses, std::memory_order_relaxed);
    serial_evals.fetch_add(s.serial_evals, std::memory_order_relaxed);
    pooled_evals.fetch_add(s.pooled_evals, std::memory_order_relaxed);
    admission_wait_ns.fetch_add(s.admission_wait_ns, std::memory_order_relaxed);
    plan_cache_evictions.fetch_add(s.plan_cache_evictions, std::memory_order_relaxed);
    plan_cache_bytes_inserted.fetch_add(s.plan_cache_bytes_inserted, std::memory_order_relaxed);
    plan_cache_bytes_evicted.fetch_add(s.plan_cache_bytes_evicted, std::memory_order_relaxed);
    batched_evals.fetch_add(s.batched_evals, std::memory_order_relaxed);
    boundaries_elided.fetch_add(s.boundaries_elided, std::memory_order_relaxed);
    carry_pieces.fetch_add(s.carry_pieces, std::memory_order_relaxed);
    bytes_merge_avoided.fetch_add(s.bytes_merge_avoided, std::memory_order_relaxed);
    stages_rebatched.fetch_add(s.stages_rebatched, std::memory_order_relaxed);
    deferred_merges.fetch_add(s.deferred_merges, std::memory_order_relaxed);
    MaxInto(carry_chain_len_max, s.carry_chain_len_max);
    MaxInto(footprint_bytes_max, s.footprint_bytes_max);
    carried_recuts.fetch_add(s.carried_recuts, std::memory_order_relaxed);
    window_firings.fetch_add(s.window_firings, std::memory_order_relaxed);
    window_lag_ns.fetch_add(s.window_lag_ns, std::memory_order_relaxed);
    incremental_merges.fetch_add(s.incremental_merges, std::memory_order_relaxed);
    batch_window_adapted_us.fetch_add(s.batch_window_adapted_us, std::memory_order_relaxed);
    MaxInto(plan_cache_true_bytes, s.plan_cache_true_bytes);
    shed_evals.fetch_add(s.shed_evals, std::memory_order_relaxed);
    quota_rejects.fetch_add(s.quota_rejects, std::memory_order_relaxed);
    deadline_evals.fetch_add(s.deadline_evals, std::memory_order_relaxed);
    cancelled_evals.fetch_add(s.cancelled_evals, std::memory_order_relaxed);
    retries.fetch_add(s.retries, std::memory_order_relaxed);
    retry_budget_exhausted.fetch_add(s.retry_budget_exhausted, std::memory_order_relaxed);
    hedges_launched.fetch_add(s.hedges_launched, std::memory_order_relaxed);
    hedge_wins.fetch_add(s.hedge_wins, std::memory_order_relaxed);
    circuit_opens.fetch_add(s.circuit_opens, std::memory_order_relaxed);
    drained_evals.fetch_add(s.drained_evals, std::memory_order_relaxed);
  }

  // Lock-free fold of a max-aggregated counter.
  static void MaxInto(std::atomic<std::int64_t>& counter, std::int64_t value) {
    std::int64_t cur = counter.load(std::memory_order_relaxed);
    while (value > cur &&
           !counter.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  void Reset() {
    client_ns = 0;
    unprotect_ns = 0;
    planner_ns = 0;
    split_ns = 0;
    task_ns = 0;
    merge_ns = 0;
    evaluations = 0;
    stages = 0;
    batches = 0;
    nodes_executed = 0;
    plans_built = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    serial_evals = 0;
    pooled_evals = 0;
    admission_wait_ns = 0;
    plan_cache_evictions = 0;
    plan_cache_bytes_inserted = 0;
    plan_cache_bytes_evicted = 0;
    batched_evals = 0;
    boundaries_elided = 0;
    carry_pieces = 0;
    bytes_merge_avoided = 0;
    stages_rebatched = 0;
    deferred_merges = 0;
    carry_chain_len_max = 0;
    footprint_bytes_max = 0;
    carried_recuts = 0;
    window_firings = 0;
    window_lag_ns = 0;
    incremental_merges = 0;
    batch_window_adapted_us = 0;
    plan_cache_true_bytes = 0;
    shed_evals = 0;
    quota_rejects = 0;
    deadline_evals = 0;
    cancelled_evals = 0;
    retries = 0;
    retry_budget_exhausted = 0;
    hedges_launched = 0;
    hedge_wins = 0;
    circuit_opens = 0;
    drained_evals = 0;
  }

  std::atomic<std::int64_t> client_ns{0};
  std::atomic<std::int64_t> unprotect_ns{0};
  std::atomic<std::int64_t> planner_ns{0};
  std::atomic<std::int64_t> split_ns{0};
  std::atomic<std::int64_t> task_ns{0};
  std::atomic<std::int64_t> merge_ns{0};
  std::atomic<std::int64_t> evaluations{0};
  std::atomic<std::int64_t> stages{0};
  std::atomic<std::int64_t> batches{0};
  std::atomic<std::int64_t> nodes_executed{0};
  std::atomic<std::int64_t> plans_built{0};
  std::atomic<std::int64_t> plan_cache_hits{0};
  std::atomic<std::int64_t> plan_cache_misses{0};
  std::atomic<std::int64_t> serial_evals{0};
  std::atomic<std::int64_t> pooled_evals{0};
  std::atomic<std::int64_t> admission_wait_ns{0};
  std::atomic<std::int64_t> plan_cache_evictions{0};
  std::atomic<std::int64_t> plan_cache_bytes_inserted{0};
  std::atomic<std::int64_t> plan_cache_bytes_evicted{0};
  std::atomic<std::int64_t> batched_evals{0};
  std::atomic<std::int64_t> boundaries_elided{0};
  std::atomic<std::int64_t> carry_pieces{0};
  std::atomic<std::int64_t> bytes_merge_avoided{0};
  std::atomic<std::int64_t> stages_rebatched{0};
  std::atomic<std::int64_t> deferred_merges{0};
  std::atomic<std::int64_t> carry_chain_len_max{0};
  std::atomic<std::int64_t> footprint_bytes_max{0};
  std::atomic<std::int64_t> carried_recuts{0};
  std::atomic<std::int64_t> window_firings{0};
  std::atomic<std::int64_t> window_lag_ns{0};
  std::atomic<std::int64_t> incremental_merges{0};
  std::atomic<std::int64_t> batch_window_adapted_us{0};
  std::atomic<std::int64_t> plan_cache_true_bytes{0};
  std::atomic<std::int64_t> shed_evals{0};
  std::atomic<std::int64_t> quota_rejects{0};
  std::atomic<std::int64_t> deadline_evals{0};
  std::atomic<std::int64_t> cancelled_evals{0};
  std::atomic<std::int64_t> retries{0};
  std::atomic<std::int64_t> retry_budget_exhausted{0};
  std::atomic<std::int64_t> hedges_launched{0};
  std::atomic<std::int64_t> hedge_wins{0};
  std::atomic<std::int64_t> circuit_opens{0};
  std::atomic<std::int64_t> drained_evals{0};
};

}  // namespace mz

#endif  // MOZART_CORE_STATS_H_
