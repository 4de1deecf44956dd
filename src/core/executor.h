// The Mozart execution engine (§5.2 of the paper).
//
// Executes a Plan one stage at a time: every stage runs to completion —
// split, task, merge — before the next starts (the paper's schedule, and the
// one Table 4's "-pipe" ablation is defined against). Serial stages run once
// on the calling thread; every other stage goes through RunStage, whose
// three parts are:
//  1. Piece source (SourcePieces): claim the piece sets carried into the
//     stage and reconcile them with its batch choice (ReconcileCarried), or
//     resolve fresh inputs — call each split input's Info() to learn total
//     element counts and per-element cache footprints — and set the batch
//     size to roughly C * sizeof(L2 cache) / sum(bytes per element).
//  2. Batch driver (DriveBatches): workers statically partition the element
//     range (one contiguous chunk per worker) or, under dynamic scheduling,
//     claim batches from a shared counter; carried stages walk the carried
//     ranges instead. Each batch splits every input, runs the stage's
//     functions in program order on the cache-resident pieces, and stashes
//     output pieces; static workers then merge their own pieces.
//  3. Merge tree (RunMergeTree): carried-out buffers are handed to the
//     consuming stage (parking a deferred merge when a Future watches the
//     slot); the remaining per-worker partials are combined by a parallel
//     merge tree on the pool (grouped partial merges on workers, root merge
//     on the calling thread) and written back into the dataflow graph.
//
// Piece passing (stage-boundary elision): when the planner marked a buffer
// carry_out/carry_in (planner.h), the producing stage skips its merge and
// hands the per-worker piece sets to the consuming stage, which skips its
// Split calls and batches by the carried ranges. ExecOptions::
// elide_boundaries ablates this at execution time: with it off, the carry
// marks are ignored and every boundary merges and re-splits as the paper
// describes.
//
// Footprint-aware per-stage batching: each stage's batch is sized from the
// bytes *that stage* keeps live per element — Info() for freshly split
// inputs plus the planner's splitter-declared hints for produced values and
// carried pieces (StageBuffer::elem_bytes_hint). When a consuming stage's
// chosen granularity diverges from its carried pieces by more than
// rebatch_threshold, the pieces are re-batched before the stage runs:
// subdivided (identity streams re-slice the original storage — pointer
// arithmetic; owned streams re-Split their own pieces when the splitter
// declares can_subdivide) or coalesced per worker (adjacent pieces merged
// toward the target batch), preserving order tags and worker affinity.
// Carried sets whose range structure cannot be reconciled (e.g. a second
// producer stage under dynamic scheduling) are materialized — merged into
// the slot and re-split like a fresh input — so multi-producer carry chains
// degrade gracefully instead of erroring.
#ifndef MOZART_CORE_EXECUTOR_H_
#define MOZART_CORE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/registry.h"
#include "core/stats.h"
#include "core/task_graph.h"

namespace mz {

struct ExecOptions {
  std::int64_t batch_override = 0;  // 0 = use the L2 heuristic
  double l2_fraction = 1.0;         // the paper's constant C
  std::size_t l2_bytes = 256 * 1024;
  bool pedantic = false;      // §7.1 debugging mode: hard-fail on bad splits
  bool collect_stats = true;  // phase timers (Fig. 5)
  // The paper opts for static parallelism "because it is simpler to schedule
  // and... leads to similar results for most workloads; however, dynamic
  // work-stealing schedulers such as Cilk are also compatible" (§5.2). With
  // dynamic=true, workers pull batches from a shared counter instead of
  // owning contiguous ranges; output pieces carry their batch origin and are
  // sorted before merging so order-sensitive merges (concatenation) stay
  // correct. Helps skewed per-element costs (filters, joins, tagging).
  bool dynamic_scheduling = false;
  // Honor the planner's stage-boundary carry marks (piece passing). Off =
  // the ablation: merge at every stage exit, re-split at every entry.
  bool elide_boundaries = true;
  // Footprint-aware per-stage batching: include produced values and carried
  // pieces (via StageBuffer::elem_bytes_hint) in the batch-size footprint,
  // and re-batch carried pieces whose granularity diverges from the stage's
  // choice. Off = the pre-footprint behavior: only freshly split inputs
  // count and carried stages inherit the producer's granularity verbatim.
  bool batch_per_stage = true;
  // Re-batch a carried stage when its piece granularity is more than this
  // factor away from the stage's chosen batch (avg piece > threshold×batch
  // coalesces nothing but subdivides; avg×threshold < batch coalesces).
  // <= 0 disables re-batching while keeping the footprint model.
  double rebatch_threshold = 2.0;
  // Cooperative cancellation (cancel.h): checked at stage boundaries, at
  // every batch a worker claims, and before each merge group. A stop thrown
  // on a worker is captured as that stage's first exception; the other
  // workers hit the same check at their next batch, so static and dynamic
  // schedules both abandon the plan promptly and the throw surfaces on the
  // calling thread. Inert by default: checks cost one null test.
  CancelToken cancel;
};

class Executor {
 public:
  Executor(TaskGraph* graph, const Registry* registry, ThreadPool* pool, ExecOptions opts,
           EvalStats* stats);
  ~Executor();

  // Runs every stage; on return all output slots hold merged values and are
  // no longer pending. Throws mz::Error on unexecutable stages (missing
  // splitters, inconsistent element counts, ...). Exceptions from worker
  // threads are rethrown on the calling thread.
  void Run(const Plan& plan);

  // Batch size the heuristic would choose for a given per-element footprint
  // (exposed for tests and the Fig. 6 bench). `resident_bytes` is cache
  // budget consumed by values that sit resident for the whole stage
  // regardless of the batch size — broadcast ("_") operands such as a hash
  // join's build side — and is subtracted from the budget before dividing.
  std::int64_t HeuristicBatchElems(std::int64_t sum_bytes_per_element,
                                   std::int64_t resident_bytes = 0) const;

 private:
  // One output piece tagged with the batch range that produced it, so
  // dynamic scheduling can restore global order before merging and carried
  // pieces can drive the consuming stage's batch structure.
  struct OrderedPiece {
    std::int64_t start = 0;
    std::int64_t end = 0;
    Value piece;
  };

  // Pieces handed across a stage boundary instead of being merged:
  // per-worker piece lists (aligned by index across all buffers carried from
  // the same producer stage) plus the producer's element total and how many
  // consecutive carried boundaries this stream has crossed (chain length —
  // feeds EvalStats::carry_chain_len_max).
  struct CarriedSet {
    std::vector<std::vector<OrderedPiece>> per_worker;
    std::int64_t total = -1;
    int chain_len = 1;
  };

  // Reusable per-stage scratch (buffer state, piece/partial tables,
  // per-worker cursors, and the piece source's batch decisions), so
  // back-to-back stages stop hammering the allocator; defined in the .cc.
  struct Scratch;

  // Runs one non-serial stage: SourcePieces, DriveBatches, RunMergeTree.
  void RunStage(const Stage& stage);
  void RunSerialStage(const Stage& stage);

  // Piece source: resolves every buffer's execution state into scratch_ and
  // decides the batch structure (total, batch size, template carried set).
  void SourcePieces(const Stage& stage);
  // Brings the claimed carried sets to one range structure that matches the
  // stage's batch choice; returns the largest piece length of that structure.
  std::int64_t ReconcileCarried(const Stage& stage);
  // Batch driver: runs every batch on the pool and pre-merges per worker.
  void DriveBatches(const Stage& stage);
  // Merge tree: carried handoff, deferred merges, and grouped final merges.
  void RunMergeTree(const Stage& stage);

  // Resolves buffer i as a freshly split input: split type, params,
  // splitter, Info().
  void ResolveFreshInput(const Stage& stage, std::size_t i);
  // Merge parameters and merge splitter for buffer i, given a sample piece.
  std::span<const std::int64_t> MergeParams(const Stage& stage, std::size_t i) const;
  const Splitter* MergeSplitter(const Stage& stage, std::size_t i, const Value& sample) const;
  // Owning variant for deferred merges, which outlive this evaluation.
  std::shared_ptr<const Splitter> MergeSplitterShared(const StageBuffer& def,
                                                      const Value& sample) const;

  TaskGraph* graph_;
  const Registry* registry_;
  ThreadPool* pool_;
  ExecOptions opts_;
  EvalStats* stats_;
  std::unique_ptr<Scratch> scratch_;
  // Piece sets in flight between stages, keyed by the carried slot.
  std::unordered_map<SlotId, CarriedSet> carried_;
};

}  // namespace mz

#endif  // MOZART_CORE_EXECUTOR_H_
