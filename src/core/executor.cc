#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"

namespace mz {

namespace {

// First non-empty piece of a per-worker piece table (sample for splitter
// resolution and Info probes); null when every piece is empty.
template <typename PieceLists>
const Value* FirstPiece(const PieceLists& per_worker_lists) {
  for (const auto& per_worker : per_worker_lists) {
    for (const auto& p : per_worker) {
      if (p.piece.has_value()) {
        return &p.piece;
      }
    }
  }
  return nullptr;
}

// Per-buffer execution state resolved at stage start.
struct BufExec {
  Value full;  // inputs and broadcasts (and carried identity streams)
  const Splitter* splitter = nullptr;
  std::vector<std::int64_t> params;
  RuntimeInfo info{};
  bool carried = false;  // fed by carried pieces; no Info/Split calls
};

}  // namespace

// Reusable scratch: per-stage buffer state, piece/partial tables, and
// per-worker cursors live here so a multi-stage plan reuses their capacity
// instead of reallocating every stage. The piece source fills it; the batch
// driver and the merge tree read it.
struct Executor::Scratch {
  std::vector<BufExec> bufs;
  std::vector<CarriedSet> carried_in;  // [buffer]: pieces claimed by the stage
  // pieces[buffer][worker] — output pieces tagged with their batch range.
  std::vector<std::vector<std::vector<OrderedPiece>>> pieces;
  std::vector<std::vector<Value>> partials;  // [buffer][worker]
  struct PerWorker {
    std::vector<Value> cur;  // [buffer]: the current batch's pieces
    std::vector<Value*> call_args;
  };
  std::vector<PerWorker> workers;
  // Flattened (worker, index) piece order for dynamic piece-driven stages.
  std::vector<std::pair<int, std::size_t>> flat;
  // The piece source's batch decisions.
  std::int64_t total = -1;  // elements in the stage's split stream
  std::int64_t batch = 1;   // batch size for range-driven stages
  int template_buf = -1;    // first carried buffer (defines the batch ranges)
  int chain_in_max = 0;     // longest carry chain feeding the stage

  void Reset(const Stage& stage, int num_threads) {
    const std::size_t nb = stage.buffers.size();
    bufs.assign(nb, BufExec{});
    carried_in.assign(nb, CarriedSet{});
    pieces.resize(nb);
    for (auto& per_buffer : pieces) {
      per_buffer.resize(static_cast<std::size_t>(num_threads));
      for (auto& per_worker : per_buffer) {
        per_worker.clear();
      }
    }
    partials.resize(nb);
    for (auto& per_buffer : partials) {
      per_buffer.assign(static_cast<std::size_t>(num_threads), Value());
    }
    workers.resize(static_cast<std::size_t>(num_threads));
    flat.clear();
    total = -1;
    batch = 1;
    template_buf = -1;
    chain_in_max = 0;
  }
};

Executor::Executor(TaskGraph* graph, const Registry* registry, ThreadPool* pool, ExecOptions opts,
                   EvalStats* stats)
    : graph_(graph),
      registry_(registry),
      pool_(pool),
      opts_(opts),
      stats_(stats),
      scratch_(std::make_unique<Scratch>()) {
  MZ_CHECK(graph != nullptr && registry != nullptr && pool != nullptr && stats != nullptr);
}

Executor::~Executor() = default;

std::int64_t Executor::HeuristicBatchElems(std::int64_t sum_bytes_per_element,
                                           std::int64_t resident_bytes) const {
  if (sum_bytes_per_element <= 0) {
    return 0;
  }
  std::int64_t budget = static_cast<std::int64_t>(opts_.l2_fraction *
                                                  static_cast<double>(opts_.l2_bytes)) -
                        resident_bytes;
  if (budget <= 0) {
    // Resident operands (broadcast values) already overflow the cache
    // budget; the smallest batch at least bounds the marginal working set.
    return 1;
  }
  return std::max<std::int64_t>(budget / sum_bytes_per_element, 1);
}

void Executor::Run(const Plan& plan) {
  for (const Stage& stage : plan.stages) {
    opts_.cancel.ThrowIfStopped("stage boundary");
    if (stage.serial) {
      RunSerialStage(stage);
    } else {
      RunStage(stage);
    }
    stats_->stages.fetch_add(1, std::memory_order_relaxed);
  }
  MZ_CHECK_MSG(carried_.empty(), "carried pieces left unconsumed at plan end ("
                                     << carried_.size() << " slot(s))");
}

void Executor::RunSerialStage(const Stage& stage) {
  ScopedAccumTimer timer(opts_.collect_stats ? &stats_->task_ns : nullptr);
  for (const PlannedFunc& pf : stage.funcs) {
    opts_.cancel.ThrowIfStopped("serial stage");
    const Node& node = graph_->nodes()[static_cast<std::size_t>(pf.node_index)];
    std::vector<Value*> args;
    args.reserve(pf.args.size());
    for (const PlannedArg& arg : pf.args) {
      const StageBuffer& buf = stage.buffers[static_cast<std::size_t>(arg.buffer)];
      Slot& slot = graph_->slot(buf.slot);
      MZ_THROW_IF(!slot.value.has_value(),
                  "serial call '" << node.ann->func_name() << "' reads an unmaterialized value");
      args.push_back(&slot.value);
    }
    MZ_LOG(Trace) << "serial call " << node.ann->func_name();
    Value ret = node.fn->Call(args);
    if (pf.ret_buffer >= 0) {
      const StageBuffer& buf = stage.buffers[static_cast<std::size_t>(pf.ret_buffer)];
      Slot& slot = graph_->slot(buf.slot);
      slot.value = std::move(ret);
      slot.pending = false;
    }
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      if (node.ann->args()[i].is_mut) {
        graph_->slot(node.args[i]).pending = false;
      }
    }
    stats_->nodes_executed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::RunStage(const Stage& stage) {
  SourcePieces(stage);
  DriveBatches(stage);
  RunMergeTree(stage);
}

void Executor::ResolveFreshInput(const Stage& stage, std::size_t i) {
  const StageBuffer& def = stage.buffers[i];
  BufExec& buf = scratch_->bufs[i];
  InternedId name = def.split_name;
  if (def.use_default_split) {
    auto dflt = registry_->DefaultSplitTypeFor(buf.full.type());
    MZ_THROW_IF(!dflt.has_value(),
                "no default split type registered for C++ type " << buf.full.type_name());
    name = *dflt;
    buf.params = registry_->RunLateCtor(name, buf.full);
  } else if (def.params_deferred) {
    buf.params = registry_->RunLateCtor(name, buf.full);
  } else {
    buf.params = def.params;
  }
  buf.splitter = registry_->FindSplitter(name, buf.full.type());
  MZ_THROW_IF(buf.splitter == nullptr, "no splitter registered for (" << InternedName(name)
                                                                       << ", "
                                                                       << buf.full.type_name()
                                                                       << ")");
  buf.info = buf.splitter->Info(buf.full, buf.params);
}

// Merge parameters: inputs use their (possibly late-constructed) split
// params; produced buffers use plan-time params unless deferred.
std::span<const std::int64_t> Executor::MergeParams(const Stage& stage, std::size_t i) const {
  const StageBuffer& def = stage.buffers[i];
  if (def.is_input) {
    return scratch_->bufs[i].params;
  }
  if (def.params_deferred) {
    return {};
  }
  return def.params;
}

// The input's own splitter when it has one, otherwise derived from the
// piece type.
const Splitter* Executor::MergeSplitter(const Stage& stage, std::size_t i,
                                        const Value& sample) const {
  if (const Splitter* s = scratch_->bufs[i].splitter; s != nullptr) {
    return s;
  }
  // The registry keeps the registration alive for the whole evaluation.
  return MergeSplitterShared(stage.buffers[i], sample).get();
}

std::shared_ptr<const Splitter> Executor::MergeSplitterShared(const StageBuffer& def,
                                                              const Value& sample) const {
  InternedId name = def.split_name;
  if (def.merge_by_piece_type || def.split_name == 0) {
    auto dflt = registry_->DefaultSplitTypeFor(sample.type());
    MZ_THROW_IF(!dflt.has_value(), "no default split type for produced value of C++ type "
                                       << sample.type_name());
    name = *dflt;
  }
  std::shared_ptr<const Splitter> s = registry_->FindSplitterShared(name, sample.type());
  if (s == nullptr) {
    // Stream-typed buffers can carry pieces of a different C++ type than
    // the stream's origin (e.g. a column extracted from frame pieces, both
    // under one generic). Merge such pieces by their own type's default.
    auto dflt = registry_->DefaultSplitTypeFor(sample.type());
    if (dflt.has_value() && *dflt != name) {
      s = registry_->FindSplitterShared(*dflt, sample.type());
    }
  }
  MZ_THROW_IF(s == nullptr, "no merge splitter for (" << InternedName(name) << ", "
                                                      << sample.type_name() << ")");
  return s;
}

void Executor::SourcePieces(const Stage& stage) {
  const int num_threads = pool_->num_threads();
  Scratch& sc = *scratch_;
  sc.Reset(stage, num_threads);
  const std::size_t nb = stage.buffers.size();

  // Claim the piece sets carried into this stage. With single-producer
  // carries the per-worker range lists are identical by construction; with
  // multi-producer carry chains they may differ, and ReconcileCarried
  // re-batches, re-cuts, or materializes stragglers.
  std::int64_t carried_total = -1;
  if (opts_.elide_boundaries) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (!stage.buffers[i].carry_in) {
        continue;
      }
      auto it = carried_.find(stage.buffers[i].slot);
      MZ_CHECK_MSG(it != carried_.end(), "stage expects carried pieces for slot "
                                             << stage.buffers[i].slot
                                             << " but none are in flight");
      sc.carried_in[i] = std::move(it->second);
      carried_.erase(it);
      sc.bufs[i].carried = true;
      // Dynamic producers emit pieces in claim order; reconciliation and
      // adjacency-based coalescing want each worker's list range-sorted.
      for (auto& per_worker : sc.carried_in[i].per_worker) {
        std::sort(per_worker.begin(), per_worker.end(),
                  [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
      }
      if (sc.template_buf < 0) {
        sc.template_buf = static_cast<int>(i);
      }
      if (carried_total < 0) {
        carried_total = sc.carried_in[i].total;
      } else {
        MZ_THROW_IF(carried_total != sc.carried_in[i].total,
                    "carried piece sets disagree on total elements: "
                        << carried_total << " vs " << sc.carried_in[i].total);
      }
      sc.chain_in_max = std::max(sc.chain_in_max, sc.carried_in[i].chain_len);
    }
  }
  const bool takes_carries = sc.template_buf >= 0;

  std::int64_t total = -1;
  std::int64_t sum_bpe = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    const StageBuffer& def = stage.buffers[i];
    if (sc.bufs[i].carried) {
      // Carried inputs skip Info and Split. Keep the slot's full value when
      // it still holds one (identity streams: pieces alias it) so merges
      // and broadcasts that name the original stay correct, and the
      // plan-time params for a possible merge of mutated carried pieces.
      Slot& slot = graph_->slot(def.slot);
      if (slot.value.has_value()) {
        sc.bufs[i].full = slot.value;
      }
      if (!def.use_default_split && !def.params_deferred) {
        sc.bufs[i].params = def.params;
      }
      continue;
    }
    if (!def.is_input && !def.is_broadcast) {
      continue;  // produced in-stage
    }
    Slot& slot = graph_->slot(def.slot);
    MZ_THROW_IF(!slot.value.has_value(), "stage input has no materialized value (slot "
                                             << def.slot << ")");
    sc.bufs[i].full = slot.value;
    if (!def.is_input) {
      continue;
    }
    ResolveFreshInput(stage, i);
    if (total < 0) {
      total = sc.bufs[i].info.total_elements;
    } else {
      MZ_THROW_IF(total != sc.bufs[i].info.total_elements,
                  "stage inputs disagree on total elements: "
                      << total << " vs " << sc.bufs[i].info.total_elements << " (slot "
                      << def.slot << ")");
    }
    sum_bpe += sc.bufs[i].info.bytes_per_element;
  }
  if (takes_carries) {
    MZ_THROW_IF(total >= 0 && total != carried_total,
                "stage inputs disagree with carried pieces on total elements: "
                    << total << " vs " << carried_total);
    total = carried_total;
  }
  MZ_CHECK_MSG(total >= 0, "non-serial stage with no split inputs");
  sc.total = total;

  // Footprint model (§5.2 extension): produced values and carried pieces
  // are part of the batch's working set too. Carried pieces are live — a
  // sample piece's Info() beats any static hint (it knows matrix row widths,
  // string columns, corpus doc sizes); produced values fall back to the
  // planner's splitter-declared widths (elem_bytes_hint). Broadcast ("_")
  // operands sit cache-resident for the whole stage regardless of the batch
  // size (a hash join's build side), so they charge *resident* bytes that
  // shrink the batch budget instead of per-element bytes.
  std::int64_t resident = 0;
  if (opts_.batch_per_stage) {
    for (std::size_t i = 0; i < nb; ++i) {
      const StageBuffer& def = stage.buffers[i];
      if (def.is_broadcast) {
        if (auto info = registry_->ProbeRuntimeInfo(sc.bufs[i].full);
            info.has_value() && info->bytes_per_element > 0 && info->total_elements > 0) {
          resident += info->total_elements * info->bytes_per_element;
        }
        continue;
      }
      if (!sc.bufs[i].carried && def.is_input) {
        continue;  // fresh inputs already contributed their Info() width
      }
      std::int64_t bpe = def.elem_bytes_hint;
      if (sc.bufs[i].carried) {
        const Value* sample = FirstPiece(sc.carried_in[i].per_worker);
        if (sample != nullptr) {
          try {
            const Splitter* s = MergeSplitter(stage, i, *sample);
            RuntimeInfo piece_info = s->Info(*sample, MergeParams(stage, i));
            if (piece_info.bytes_per_element > 0) {
              bpe = piece_info.bytes_per_element;
            }
          } catch (const std::exception&) {
            // Unsizable pieces keep the static hint.
          }
        }
      }
      sum_bpe += bpe;
    }
  }

  // Per-stage batch from the footprint. Carried stages need it too: it is
  // the yardstick the re-batching decision measures the inherited piece
  // granularity against.
  std::int64_t batch = opts_.batch_override;
  if (batch <= 0) {
    batch = HeuristicBatchElems(sum_bpe, resident);
    if (batch == 0) {
      // No buffer reports a memory footprint; fall back to one batch per
      // worker.
      batch = std::max<std::int64_t>(1, (total + num_threads - 1) / num_threads);
    }
  }
  sc.batch = std::clamp<std::int64_t>(batch, 1, std::max<std::int64_t>(total, 1));

  // Effective per-batch granularity this stage actually runs at (for the
  // footprint_bytes_max gauge): the batch size, or the largest carried
  // piece after reconciliation.
  std::int64_t granularity = sc.batch;
  if (takes_carries) {
    granularity = ReconcileCarried(stage);
    // Piece-driven: the (reconciled) carried ranges define the batch
    // structure. Dynamic workers steal from the flattened piece list.
    if (opts_.dynamic_scheduling) {
      const auto& lists = sc.carried_in[static_cast<std::size_t>(sc.template_buf)].per_worker;
      for (std::size_t w = 0; w < lists.size(); ++w) {
        for (std::size_t idx = 0; idx < lists[w].size(); ++idx) {
          sc.flat.emplace_back(static_cast<int>(w), idx);
        }
      }
    }
    MZ_LOG(Debug) << "stage: " << stage.funcs.size() << " funcs, total=" << total
                  << " elems, piece-driven (carried, granularity<=" << granularity << ")";
  } else {
    MZ_LOG(Debug) << "stage: " << stage.funcs.size() << " funcs, total=" << total
                  << " elems, batch=" << sc.batch << " (sum_bpe=" << sum_bpe
                  << " resident=" << resident << ")";
  }
  if (opts_.collect_stats && sum_bpe > 0 && granularity > 0) {
    EvalStats::MaxInto(stats_->footprint_bytes_max, granularity * sum_bpe);
  }
}

// Reconciles the carried piece sets with this stage's batch choice
// (footprint-aware re-batching) and with each other (multi-producer carry
// chains). The template set's ranges define the stage's final batch
// structure; every other carried buffer is brought to that exact
// structure — kept as-is, transformed piecewise, rebuilt by re-slicing an
// identity stream's full value, re-cut from pieces that tile the stream
// exactly, or (last resort) materialized into the slot and re-split like
// a fresh input. Returns the largest piece length of the final structure.
std::int64_t Executor::ReconcileCarried(const Stage& stage) {
  const int num_threads = pool_->num_threads();
  Scratch& sc = *scratch_;
  const std::size_t nb = stage.buffers.size();
  const std::int64_t total = sc.total;
  const std::int64_t batch = sc.batch;
  const int template_buf = sc.template_buf;
  CarriedSet& tset = sc.carried_in[static_cast<std::size_t>(template_buf)];

  auto same_structure = [](const CarriedSet& a, const CarriedSet& b) {
    if (a.per_worker.size() != b.per_worker.size()) {
      return false;
    }
    for (std::size_t w = 0; w < a.per_worker.size(); ++w) {
      const auto& x = a.per_worker[w];
      const auto& y = b.per_worker[w];
      if (x.size() != y.size()) {
        return false;
      }
      for (std::size_t j = 0; j < x.size(); ++j) {
        if (x[j].start != y[j].start || x[j].end != y[j].end) {
          return false;
        }
      }
    }
    return true;
  };

  std::int64_t npieces = 0;
  for (const auto& per_worker : tset.per_worker) {
    npieces += static_cast<std::int64_t>(per_worker.size());
  }

  // Re-batch direction, measured on the template set: inherited pieces
  // much larger than this stage's batch overflow its working-set budget
  // (subdivide); much smaller ones pay per-piece overhead (coalesce,
  // but never below one piece per worker — that is the parallelism).
  enum class Op { kNone, kSubdivide, kCoalesce };
  Op op = Op::kNone;
  const double thresh = opts_.rebatch_threshold;
  if (opts_.batch_per_stage && thresh > 0 && total > 0 && npieces > 0) {
    const double avg = static_cast<double>(total) / static_cast<double>(npieces);
    if (avg > static_cast<double>(batch) * thresh) {
      op = Op::kSubdivide;
    } else if (avg * thresh < static_cast<double>(batch) && npieces > num_threads) {
      op = Op::kCoalesce;
    }
  }

  // What each carried buffer can do. Identity streams with a live full
  // value re-slice it at any granularity (pure pointer arithmetic);
  // otherwise pieces subdivide through their own splitter when it
  // declares can_subdivide, and coalesce through their merge.
  struct Cap {
    bool identity_full = false;
    const Splitter* full_splitter = nullptr;
    const Splitter* piece_splitter = nullptr;
    bool piece_subdivide = false;
  };
  auto capability_of = [&](std::size_t i) {
    Cap cap;
    const StageBuffer& def = stage.buffers[i];
    if (sc.bufs[i].full.has_value()) {
      InternedId name = 0;
      if (!def.use_default_split && !def.params_deferred && def.split_name != 0) {
        name = def.split_name;
      } else if (auto dflt = registry_->DefaultSplitTypeFor(sc.bufs[i].full.type());
                 dflt.has_value()) {
        name = *dflt;
      }
      if (name != 0) {
        const Splitter* s = registry_->FindSplitter(name, sc.bufs[i].full.type());
        if (s != nullptr && s->traits().merge_is_identity) {
          cap.identity_full = true;
          cap.full_splitter = s;
          if (sc.bufs[i].params.empty() && (def.use_default_split || def.params_deferred)) {
            sc.bufs[i].params = registry_->RunLateCtor(name, sc.bufs[i].full);
          }
        }
      }
    }
    if (const Value* sample = FirstPiece(sc.carried_in[i].per_worker)) {
      try {
        cap.piece_splitter = MergeSplitter(stage, i, *sample);
      } catch (const std::exception&) {
        cap.piece_splitter = nullptr;  // no merge path; identity may still apply
      }
      if (cap.piece_splitter != nullptr) {
        cap.piece_subdivide = cap.piece_splitter->traits().can_subdivide;
      }
    }
    return cap;
  };

  std::vector<Cap> caps(nb);
  std::vector<bool> matches(nb, false);
  for (std::size_t i = 0; i < nb; ++i) {
    if (!sc.bufs[i].carried) {
      continue;
    }
    caps[i] = capability_of(i);
    matches[i] = static_cast<int>(i) == template_buf || same_structure(sc.carried_in[i], tset);
  }

  const Cap& tcap = caps[static_cast<std::size_t>(template_buf)];
  if (op == Op::kSubdivide && !(tcap.identity_full || tcap.piece_subdivide)) {
    op = Op::kNone;  // the structure-defining set cannot re-cut: inherit
  }
  if (op == Op::kCoalesce && !(tcap.identity_full || tcap.piece_splitter != nullptr)) {
    op = Op::kNone;
  }

  // Final range structure with provenance into the template set's (sorted)
  // ranges. Subdivision cuts single pieces, coalescing groups *adjacent*
  // whole pieces; both stay within one worker's list, preserving worker
  // affinity and the order tags that dynamic merges sort by.
  struct FinalRange {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::size_t src_lo = 0;  // [src_lo, src_hi) source piece indices
    std::size_t src_hi = 0;
  };
  std::vector<std::vector<FinalRange>> final_ranges(static_cast<std::size_t>(num_threads));
  std::int64_t max_len = 0;
  for (int w = 0; w < num_threads; ++w) {
    const auto& src = tset.per_worker[static_cast<std::size_t>(w)];
    auto& dst = final_ranges[static_cast<std::size_t>(w)];
    if (op == Op::kSubdivide) {
      for (std::size_t j = 0; j < src.size(); ++j) {
        if (src[j].start >= src[j].end) {
          dst.push_back({src[j].start, src[j].end, j, j + 1});
          continue;
        }
        for (std::int64_t s = src[j].start; s < src[j].end; s += batch) {
          dst.push_back({s, std::min(src[j].end, s + batch), j, j + 1});
        }
      }
    } else if (op == Op::kCoalesce) {
      std::size_t j = 0;
      while (j < src.size()) {
        std::size_t k = j + 1;
        while (k < src.size() && src[k].start == src[k - 1].end &&
               src[k].end - src[j].start <= batch) {
          ++k;
        }
        dst.push_back({src[j].start, src[k - 1].end, j, k});
        j = k;
      }
    } else {
      for (std::size_t j = 0; j < src.size(); ++j) {
        dst.push_back({src[j].start, src[j].end, j, j + 1});
      }
    }
    for (const FinalRange& r : dst) {
      max_len = std::max(max_len, r.end - r.start);
    }
  }

  // Coverage-aware re-cut (multi-producer carry chains): a non-matching
  // set whose pieces tile [0, total) exactly can be re-cut in place to the
  // template structure through its own splitter — no materialize, no
  // re-split of a merged value. Gaps, overlaps, or empty pieces fail the
  // check and fall back to materializing.
  std::vector<std::vector<OrderedPiece>> recut_sources(nb);
  auto gather_recut_sources = [&](std::size_t i) -> bool {
    std::vector<OrderedPiece> all;
    for (const auto& per_worker : sc.carried_in[i].per_worker) {
      for (const OrderedPiece& p : per_worker) {
        if (p.end <= p.start) {
          continue;
        }
        if (!p.piece.has_value()) {
          return false;
        }
        all.push_back(p);  // shared-holder copy; originals stay for fallback
      }
    }
    if (all.empty()) {
      return false;
    }
    std::sort(all.begin(), all.end(),
              [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
    if (all.front().start != 0 || all.back().end != total) {
      return false;
    }
    for (std::size_t k = 1; k < all.size(); ++k) {
      if (all[k].start != all[k - 1].end) {
        return false;
      }
    }
    recut_sources[i] = std::move(all);
    return true;
  };

  // Per-buffer plan: keep, rebuild from the full value, transform
  // piecewise, re-cut from coverage, or materialize.
  enum class Mode { kKeep, kRebuild, kPiecewise, kRecut, kMaterialize };
  std::vector<Mode> modes(nb, Mode::kKeep);
  bool any_transform = false;
  bool any_rebatch = false;
  int nrecut = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (!sc.bufs[i].carried) {
      continue;
    }
    if (matches[i]) {
      if (op == Op::kNone) {
        modes[i] = Mode::kKeep;
      } else if (caps[i].identity_full) {
        modes[i] = Mode::kRebuild;
      } else if (op == Op::kSubdivide ? caps[i].piece_subdivide
                                      : caps[i].piece_splitter != nullptr) {
        modes[i] = Mode::kPiecewise;
      } else {
        modes[i] = Mode::kMaterialize;
      }
    } else {
      // Different producer, different range structure: re-slice identity
      // streams straight to the final structure; owned streams whose
      // pieces provably cover the stream re-cut in place; everything else
      // materializes (sound: merging at consume time is what the
      // non-carried path would have done at the boundary).
      if (caps[i].identity_full) {
        modes[i] = Mode::kRebuild;
      } else if (caps[i].piece_splitter != nullptr && caps[i].piece_subdivide &&
                 gather_recut_sources(i)) {
        modes[i] = Mode::kRecut;
        ++nrecut;
      } else {
        modes[i] = Mode::kMaterialize;
      }
    }
    if (modes[i] == Mode::kRebuild || modes[i] == Mode::kPiecewise ||
        modes[i] == Mode::kRecut) {
      any_transform = true;
      if (matches[i] && op != Op::kNone) {
        any_rebatch = true;
      }
    }
  }

  for (std::size_t i = 0; i < nb; ++i) {
    if (!sc.bufs[i].carried || modes[i] != Mode::kMaterialize) {
      continue;
    }
    CarriedSet& set = sc.carried_in[i];
    std::vector<OrderedPiece> all;
    for (auto& per_worker : set.per_worker) {
      all.insert(all.end(), std::make_move_iterator(per_worker.begin()),
                 std::make_move_iterator(per_worker.end()));
    }
    std::sort(all.begin(), all.end(),
              [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
    std::vector<Value> parts;
    parts.reserve(all.size());
    for (OrderedPiece& p : all) {
      if (p.piece.has_value()) {
        parts.push_back(std::move(p.piece));
      }
    }
    if (!parts.empty()) {
      const Splitter* ms = MergeSplitter(stage, i, parts.front());
      sc.bufs[i].full = ms->Merge(sc.bufs[i].full, std::move(parts), MergeParams(stage, i));
    }
    MZ_THROW_IF(!sc.bufs[i].full.has_value(),
                "cannot materialize carried pieces for slot " << stage.buffers[i].slot);
    sc.bufs[i].carried = false;
    set = CarriedSet{};
    ResolveFreshInput(stage, i);
    MZ_THROW_IF(sc.bufs[i].info.total_elements != total,
                "materialized carried value disagrees on total elements: "
                    << sc.bufs[i].info.total_elements << " vs " << total);
  }

  if (any_transform) {
    std::mutex rebatch_error_mu;
    std::exception_ptr rebatch_error;
    pool_->RunOnAllWorkers([&](int w) {
      try {
        SplitContext ctx{w, num_threads};
        for (std::size_t i = 0; i < nb; ++i) {
          if (!sc.bufs[i].carried || modes[i] == Mode::kKeep) {
            continue;
          }
          const auto& fr = final_ranges[static_cast<std::size_t>(w)];
          auto& old = sc.carried_in[i].per_worker[static_cast<std::size_t>(w)];
          std::vector<OrderedPiece> fresh;
          fresh.reserve(fr.size());
          for (const FinalRange& r : fr) {
            if (modes[i] == Mode::kRebuild) {
              fresh.push_back({r.start, r.end,
                               caps[i].full_splitter->Split(sc.bufs[i].full, r.start, r.end,
                                                            sc.bufs[i].params, ctx)});
            } else if (modes[i] == Mode::kRecut) {
              // Cut [r.start, r.end) out of the sorted covering pieces;
              // sources are shared across workers, so whole-piece reuse
              // copies the Value instead of moving it.
              const auto& srcs = recut_sources[i];
              if (r.start >= r.end) {
                fresh.push_back({r.start, r.end,
                                 caps[i].piece_splitter->Split(srcs.front().piece, 0, 0,
                                                               sc.bufs[i].params, ctx)});
                continue;
              }
              auto it = std::upper_bound(
                  srcs.begin(), srcs.end(), r.start,
                  [](std::int64_t v, const OrderedPiece& p) { return v < p.end; });
              std::vector<Value> parts;
              for (; it != srcs.end() && it->start < r.end; ++it) {
                const std::int64_t lo = std::max(r.start, it->start);
                const std::int64_t hi = std::min(r.end, it->end);
                if (lo == it->start && hi == it->end) {
                  parts.push_back(it->piece);
                } else {
                  parts.push_back(caps[i].piece_splitter->Split(
                      it->piece, lo - it->start, hi - it->start, sc.bufs[i].params, ctx));
                }
              }
              if (parts.size() == 1) {
                fresh.push_back({r.start, r.end, std::move(parts.front())});
              } else {
                fresh.push_back({r.start, r.end,
                                 caps[i].piece_splitter->Merge(sc.bufs[i].full,
                                                               std::move(parts),
                                                               MergeParams(stage, i))});
              }
            } else if (op == Op::kSubdivide) {
              OrderedPiece& src = old[r.src_lo];
              if (r.start == src.start && r.end == src.end) {
                fresh.push_back({r.start, r.end, std::move(src.piece)});
              } else {
                fresh.push_back(
                    {r.start, r.end,
                     caps[i].piece_splitter->Split(src.piece, r.start - src.start,
                                                   r.end - src.start, sc.bufs[i].params,
                                                   ctx)});
              }
            } else {  // coalesce
              if (r.src_hi - r.src_lo == 1) {
                fresh.push_back({r.start, r.end, std::move(old[r.src_lo].piece)});
              } else {
                std::vector<Value> group;
                group.reserve(r.src_hi - r.src_lo);
                for (std::size_t j = r.src_lo; j < r.src_hi; ++j) {
                  group.push_back(std::move(old[j].piece));
                }
                // sc.bufs[i].full is empty for produced owned streams; a
                // splitter whose Merge needs the original gets it when the
                // slot still holds one.
                fresh.push_back(
                    {r.start, r.end,
                     caps[i].piece_splitter->Merge(sc.bufs[i].full, std::move(group),
                                                   MergeParams(stage, i))});
              }
            }
          }
          old = std::move(fresh);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(rebatch_error_mu);
        if (!rebatch_error) {
          rebatch_error = std::current_exception();
        }
      }
    });
    if (rebatch_error) {
      std::rethrow_exception(rebatch_error);
    }
  }
  if (any_rebatch) {
    stats_->stages_rebatched.fetch_add(1, std::memory_order_relaxed);
  }
  if (nrecut > 0) {
    stats_->carried_recuts.fetch_add(nrecut, std::memory_order_relaxed);
  }
  return std::max<std::int64_t>(max_len, 1);
}

void Executor::DriveBatches(const Stage& stage) {
  const int num_threads = pool_->num_threads();
  const bool elide = opts_.elide_boundaries;
  const bool dynamic = opts_.dynamic_scheduling;
  const bool pedantic = opts_.pedantic;
  const bool collect = opts_.collect_stats;
  Scratch& sc = *scratch_;
  const std::size_t nb = stage.buffers.size();
  const std::int64_t total = sc.total;
  const std::int64_t batch = sc.batch;
  const std::int64_t chunk = (std::max<std::int64_t>(total, 1) + num_threads - 1) / num_threads;

  std::atomic<std::int64_t> cursor{0};       // dynamic: next unclaimed batch
  std::atomic<std::size_t> piece_cursor{0};  // dynamic carried: next piece
  std::mutex error_mu;
  std::exception_ptr first_error;

  pool_->RunOnAllWorkers([&](int t) {
    try {
      SplitContext ctx{t, num_threads};
      Scratch::PerWorker& ws = sc.workers[static_cast<std::size_t>(t)];
      std::vector<Value>& cur = ws.cur;
      cur.assign(nb, Value());
      for (std::size_t i = 0; i < nb; ++i) {
        if (stage.buffers[i].is_broadcast) {
          cur[i] = sc.bufs[i].full;
        }
      }
      ws.call_args.clear();
      std::int64_t split_ns = 0;
      std::int64_t task_ns = 0;
      std::int64_t merge_ns = 0;
      std::int64_t batches = 0;

      // Runs the batch [b, e). cw/cidx locate the carried pieces feeding it
      // (cw < 0 for range-driven stages).
      auto run_batch = [&](std::int64_t b, std::int64_t e, int cw, std::size_t cidx) {
        // Batch-boundary cancellation point: a stop thrown here is captured
        // as this stage's first exception below.
        opts_.cancel.ThrowIfStopped("batch boundary");
        MZ_FAULT("exec.batch");
        std::int64_t t0 = collect ? NowNanos() : 0;
        for (std::size_t i = 0; i < nb; ++i) {
          if (sc.bufs[i].carried) {
            OrderedPiece& carried =
                sc.carried_in[i].per_worker[static_cast<std::size_t>(cw)][cidx];
            if (pedantic) {
              MZ_THROW_IF(!carried.piece.has_value(),
                          "pedantic: carried piece for slot " << stage.buffers[i].slot
                                                              << " range [" << b << ", " << e
                                                              << ") is empty");
            }
            cur[i] = std::move(carried.piece);
            continue;
          }
          if (!stage.buffers[i].is_input) {
            continue;
          }
          MZ_FAULT("exec.split");
          cur[i] = sc.bufs[i].splitter->Split(sc.bufs[i].full, b, e, sc.bufs[i].params, ctx);
          if (pedantic) {
            MZ_THROW_IF(!cur[i].has_value(), "pedantic: Split returned an empty value for slot "
                                                 << stage.buffers[i].slot << " range [" << b
                                                 << ", " << e << ")");
          }
        }
        std::int64_t t1 = collect ? NowNanos() : 0;
        for (const PlannedFunc& pf : stage.funcs) {
          const Node& node = graph_->nodes()[static_cast<std::size_t>(pf.node_index)];
          ws.call_args.clear();
          for (const PlannedArg& arg : pf.args) {
            ws.call_args.push_back(&cur[static_cast<std::size_t>(arg.buffer)]);
          }
          if (pedantic) {
            MZ_LOG(Trace) << "batch [" << b << "," << e << ") thread " << t << ": "
                          << node.ann->func_name();
          }
          Value ret = node.fn->Call(ws.call_args);
          if (pf.ret_buffer >= 0) {
            cur[static_cast<std::size_t>(pf.ret_buffer)] = std::move(ret);
          }
        }
        std::int64_t t2 = collect ? NowNanos() : 0;
        for (std::size_t i = 0; i < nb; ++i) {
          const StageBuffer& def = stage.buffers[i];
          if (def.is_output || (elide && def.carry_out)) {
            sc.pieces[i][static_cast<std::size_t>(t)].push_back({b, e, cur[i]});
          }
        }
        if (collect) {
          split_ns += t1 - t0;
          task_ns += t2 - t1;
        }
        ++batches;
      };

      if (sc.template_buf >= 0) {
        const auto& lists = sc.carried_in[static_cast<std::size_t>(sc.template_buf)].per_worker;
        if (dynamic) {  // work stealing over the flattened piece list
          for (;;) {
            std::size_t j = piece_cursor.fetch_add(1, std::memory_order_relaxed);
            if (j >= sc.flat.size()) {
              break;
            }
            auto [w, idx] = sc.flat[j];
            const OrderedPiece& tp = lists[static_cast<std::size_t>(w)][idx];
            run_batch(tp.start, tp.end, w, idx);
          }
        } else {
          // Static: each worker consumes the pieces it produced last stage —
          // same contiguous in-order range, same cache affinity.
          const auto& mine = lists[static_cast<std::size_t>(t)];
          for (std::size_t idx = 0; idx < mine.size(); ++idx) {
            run_batch(mine[idx].start, mine[idx].end, t, idx);
          }
        }
      } else if (total == 0) {
        // Run one empty batch on worker 0 so produced values keep their
        // schema (e.g. an empty DataFrame with the right columns).
        if (t == 0) {
          run_batch(0, 0, -1, 0);
        }
      } else if (dynamic) {  // claim the next unprocessed batch
        for (;;) {
          std::int64_t b = cursor.fetch_add(batch, std::memory_order_relaxed);
          if (b >= total) {
            break;
          }
          run_batch(b, std::min(total, b + batch), -1, 0);
        }
      } else {
        // Static partitioning (§5.2): one contiguous range per worker.
        std::int64_t lo = std::min<std::int64_t>(total, static_cast<std::int64_t>(t) * chunk);
        std::int64_t hi = std::min<std::int64_t>(total, lo + chunk);
        for (std::int64_t b = lo; b < hi; b += batch) {
          run_batch(b, std::min(hi, b + batch), -1, 0);
        }
      }

      // Per-worker partial merges (§5.2 step 3, first level). Only valid
      // under static scheduling, where a worker's pieces are a contiguous
      // in-order range; dynamic mode defers to a single ordered merge.
      // Carried-out buffers skip merging entirely — their pieces pass on.
      if (!dynamic) {
        for (std::size_t i = 0; i < nb; ++i) {
          const StageBuffer& def = stage.buffers[i];
          if (!def.is_output || (elide && def.carry_out)) {
            continue;
          }
          std::vector<OrderedPiece>& mine = sc.pieces[i][static_cast<std::size_t>(t)];
          if (mine.empty()) {
            continue;
          }
          std::int64_t t3 = collect ? NowNanos() : 0;
          std::vector<Value> values;
          values.reserve(mine.size());
          for (OrderedPiece& p : mine) {
            values.push_back(std::move(p.piece));
          }
          const Splitter* ms = MergeSplitter(stage, i, values.front());
          sc.partials[i][static_cast<std::size_t>(t)] =
              ms->Merge(sc.bufs[i].full, std::move(values), MergeParams(stage, i));
          mine.clear();
          if (collect) {
            merge_ns += NowNanos() - t3;
          }
        }
      }
      if (collect) {
        stats_->split_ns.fetch_add(split_ns, std::memory_order_relaxed);
        stats_->task_ns.fetch_add(task_ns, std::memory_order_relaxed);
        stats_->merge_ns.fetch_add(merge_ns, std::memory_order_relaxed);
        stats_->batches.fetch_add(batches, std::memory_order_relaxed);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  });

  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void Executor::RunMergeTree(const Stage& stage) {
  const int num_threads = pool_->num_threads();
  const bool collect = opts_.collect_stats;
  Scratch& sc = *scratch_;

  // Hand carried-out buffers to their consuming stage and collect merge
  // jobs. The handoffs are bookkeeping, not merging, so they stay outside
  // the merge timers (merge_ns must measure only actual merges — Fig. 5
  // stays honest as merges shrink).
  struct MergeJob {
    std::size_t buf = 0;
    const Splitter* ms = nullptr;
    std::vector<Value> parts;
    std::span<const std::int64_t> params;
    std::vector<Value> group_results;
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    Value final_value;
  };
  std::vector<MergeJob> jobs;
  for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
    const StageBuffer& def = stage.buffers[i];
    if (opts_.elide_boundaries && def.carry_out) {
      std::int64_t piece_count = 0;
      for (const auto& per_worker : sc.pieces[i]) {
        piece_count += static_cast<std::int64_t>(per_worker.size());
      }
      stats_->boundaries_elided.fetch_add(1, std::memory_order_relaxed);
      stats_->carry_pieces.fetch_add(piece_count, std::memory_order_relaxed);
      if (collect) {
        // Best-effort accounting of the merge traffic this elision
        // avoided. Identity merges move no bytes and contribute nothing.
        try {
          const Value* sample = FirstPiece(sc.pieces[i]);
          if (sample != nullptr) {
            const Splitter* ms = MergeSplitter(stage, i, *sample);
            if (!ms->traits().merge_is_identity) {
              std::int64_t bytes = 0;
              for (const auto& per_worker : sc.pieces[i]) {
                for (const OrderedPiece& p : per_worker) {
                  if (!p.piece.has_value()) {
                    continue;
                  }
                  RuntimeInfo info = ms->Info(p.piece, {});
                  bytes += info.total_elements * info.bytes_per_element;
                }
              }
              stats_->bytes_merge_avoided.fetch_add(bytes, std::memory_order_relaxed);
            }
          }
        } catch (const std::exception&) {
          // Accounting only; a split type that cannot Info() its own
          // pieces simply reports no avoided bytes.
        }
      }
      MZ_CHECK_MSG(carried_.count(def.slot) == 0,
                   "slot " << def.slot << " already has carried pieces in flight");
      if (def.deferred_merge) {
        // Lazy merge-on-get: the slot is pinned by a live Future, so park
        // an ordered copy of the pieces (cheap: Values share holders) plus
        // the merge recipe on the slot. Future::get() — or a later capture
        // referencing the slot — merges on demand; if the Future dies
        // unread, the merge never happens at all.
        std::vector<OrderedPiece> ordered;
        for (const auto& per_worker : sc.pieces[i]) {
          ordered.insert(ordered.end(), per_worker.begin(), per_worker.end());
        }
        std::sort(ordered.begin(), ordered.end(),
                  [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
        auto state = std::make_shared<DeferredMergeState>();
        state->pieces.reserve(ordered.size());
        for (OrderedPiece& p : ordered) {
          if (p.piece.has_value()) {
            state->pieces.push_back(std::move(p.piece));
          }
        }
        if (!state->pieces.empty()) {
          state->splitter = MergeSplitterShared(def, state->pieces.front());
          state->original = sc.bufs[i].full;
          std::span<const std::int64_t> params = MergeParams(stage, i);
          state->params.assign(params.begin(), params.end());
          graph_->slot(def.slot).deferred = std::move(state);
          stats_->deferred_merges.fetch_add(1, std::memory_order_relaxed);
        }
      }
      CarriedSet set;
      set.per_worker = std::move(sc.pieces[i]);
      set.total = sc.total;
      set.chain_len = sc.chain_in_max + 1;
      EvalStats::MaxInto(stats_->carry_chain_len_max, set.chain_len);
      carried_.emplace(def.slot, std::move(set));
      // The slot is satisfied by the pieces in flight: identity streams
      // keep their full value, owned streams are consumed wholesale by
      // the next stage and can never be observed merged (unless a
      // deferred merge parked them above for a lazy merge-on-get).
      graph_->slot(def.slot).pending = false;
      continue;
    }
    if (!def.is_output) {
      // Produced-but-unobserved values: nothing merges them, but the slot
      // must not stay pending.
      if (!def.is_input && !def.is_broadcast) {
        graph_->slot(def.slot).pending = false;
      }
      continue;
    }
    std::vector<Value> parts;
    if (opts_.dynamic_scheduling) {
      std::vector<OrderedPiece> all;
      for (int w = 0; w < num_threads; ++w) {
        auto& mine = sc.pieces[i][static_cast<std::size_t>(w)];
        all.insert(all.end(), std::make_move_iterator(mine.begin()),
                   std::make_move_iterator(mine.end()));
        mine.clear();
      }
      std::sort(all.begin(), all.end(),
                [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
      parts.reserve(all.size());
      for (OrderedPiece& p : all) {
        parts.push_back(std::move(p.piece));
      }
    } else {
      parts.reserve(static_cast<std::size_t>(num_threads));
      for (int w = 0; w < num_threads; ++w) {
        if (sc.partials[i][static_cast<std::size_t>(w)].has_value()) {
          parts.push_back(std::move(sc.partials[i][static_cast<std::size_t>(w)]));
        }
      }
    }
    if (parts.empty()) {
      // Zero-element in-place input: the original value is the result.
      Slot& slot = graph_->slot(def.slot);
      slot.value = sc.bufs[i].full;
      slot.pending = false;
      continue;
    }
    MergeJob job;
    job.buf = i;
    job.ms = MergeSplitter(stage, i, parts.front());
    job.params = MergeParams(stage, i);
    job.parts = std::move(parts);
    jobs.push_back(std::move(job));
  }
  stats_->nodes_executed.fetch_add(static_cast<std::int64_t>(stage.funcs.size()),
                                   std::memory_order_relaxed);
  if (jobs.empty()) {
    return;
  }

  // Final merges (§5.2 step 3, second level) through a parallel merge
  // tree: each job's parts are cut into contiguous adjacent groups
  // (order-preserving for concatenation merges); groups across all jobs
  // form one task list the pool drains, then the roots fold the group
  // results. Single-part jobs and 1-thread pools collapse to the direct
  // k-ary merge.
  std::size_t num_tasks = 0;
  for (MergeJob& job : jobs) {
    std::size_t groups = std::min<std::size_t>(static_cast<std::size_t>(std::max(num_threads, 1)),
                                               (job.parts.size() + 1) / 2);
    groups = std::max<std::size_t>(groups, 1);
    std::size_t per = (job.parts.size() + groups - 1) / groups;
    for (std::size_t g = 0; g * per < job.parts.size(); ++g) {
      job.groups.emplace_back(g * per, std::min(job.parts.size(), (g + 1) * per));
    }
    job.group_results.resize(job.groups.size());
    num_tasks += job.groups.size();
  }

  auto merge_group = [&](MergeJob& job, std::size_t g) {
    opts_.cancel.ThrowIfStopped("merge");
    MZ_FAULT("exec.merge");
    auto [gb, ge] = job.groups[g];
    std::vector<Value> group;
    group.reserve(ge - gb);
    for (std::size_t p = gb; p < ge; ++p) {
      group.push_back(std::move(job.parts[p]));
    }
    job.group_results[g] = job.ms->Merge(sc.bufs[job.buf].full, std::move(group), job.params);
  };

  if (num_threads > 1 && num_tasks > 1) {
    // Fan the group merges out: (job, group) pairs claimed via a shared
    // cursor. Worker 0 is the calling thread (RunOnWorkers).
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    tasks.reserve(num_tasks);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t g = 0; g < jobs[j].groups.size(); ++g) {
        tasks.emplace_back(j, g);
      }
    }
    std::atomic<std::size_t> task_cursor{0};
    std::mutex merge_error_mu;
    std::exception_ptr merge_error;
    pool_->RunOnWorkers(
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(num_threads),
                                               tasks.size())),
        [&](int) {
          std::int64_t ns = 0;
          try {
            for (;;) {
              std::size_t j = task_cursor.fetch_add(1, std::memory_order_relaxed);
              if (j >= tasks.size()) {
                break;
              }
              std::int64_t t0 = collect ? NowNanos() : 0;
              merge_group(jobs[tasks[j].first], tasks[j].second);
              if (collect) {
                ns += NowNanos() - t0;
              }
            }
          } catch (...) {
            std::lock_guard<std::mutex> lock(merge_error_mu);
            if (!merge_error) {
              merge_error = std::current_exception();
            }
          }
          if (collect) {
            stats_->merge_ns.fetch_add(ns, std::memory_order_relaxed);
          }
        });
    if (merge_error) {
      std::rethrow_exception(merge_error);
    }
  } else {
    ScopedAccumTimer merge_timer(collect ? &stats_->merge_ns : nullptr);
    for (MergeJob& job : jobs) {
      for (std::size_t g = 0; g < job.groups.size(); ++g) {
        merge_group(job, g);
      }
    }
  }

  // Root merges: fold each job's group results (associative merges — the
  // same property the per-worker pre-merge already relies on).
  {
    ScopedAccumTimer merge_timer(collect ? &stats_->merge_ns : nullptr);
    for (MergeJob& job : jobs) {
      if (job.group_results.size() == 1) {
        job.final_value = std::move(job.group_results.front());
      } else {
        job.final_value =
            job.ms->Merge(sc.bufs[job.buf].full, std::move(job.group_results), job.params);
      }
    }
  }
  for (MergeJob& job : jobs) {
    Slot& slot = graph_->slot(stage.buffers[job.buf].slot);
    slot.value = std::move(job.final_value);
    slot.pending = false;
  }
}

}  // namespace mz
