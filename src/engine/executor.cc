#include "engine/executor.h"

#include <algorithm>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort_merge.h"
#include "obs/mem_tracker.h"
#include "obs/profile.h"
#include "obs/profiled_operator.h"
#include "obs/trace.h"
#include "patchindex/patch_index.h"

namespace patchindex {
namespace {

/// The storage behind one scan node, flattened to partitions: a plain
/// table is a single "partition" at global base 0; a multi-partition
/// PartitionedTable lists every partition with its global visible-row
/// offset (scans add it to their rowIDs so output rowIDs are
/// table-global).
///
/// For catalog tables, PinnedReadSet retargeted the scan node's table
/// pointers at the immutable snapshot of a pinned TableVersion, so
/// everything below reads frozen state with no table lock held. A
/// free-standing table (the §5 handlers' PDT-aware scans, tests) is read
/// as is. The executor cannot tell the difference and must not care —
/// both are plain `const Table*`s.
struct ScanTarget {
  const LogicalNode* scan = nullptr;
  std::vector<const Table*> parts;
  std::vector<std::uint64_t> bases;

  /// The scan's morsel spec: every partition's base rows the scan's block
  /// pruning kept (all of them when unpruned), plus an inserts morsel per
  /// partition with pending PDT inserts.
  std::vector<MorselPartition> FullWork() const {
    std::vector<MorselPartition> work;
    work.reserve(parts.size());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      MorselPartition m;
      m.partition = p;
      m.ranges = ScanBaseRanges(*scan, p);
      m.with_inserts = !parts[p]->pdt().inserts().empty();
      work.push_back(std::move(m));
    }
    return work;
  }
};

ScanTarget TargetOf(const LogicalNode& scan) {
  ScanTarget target;
  target.scan = &scan;
  target.parts = ScanPartitions(scan);
  // Offsets accumulate *visible* rows: each partition emits exactly its
  // visible positions [0, visible_p) (deletes compact, inserts append),
  // so visible offsets keep global rowIDs contiguous and unique for any
  // pending deltas. With a clean PDT — the only state in which scan
  // rowIDs are fed back into updates, under the exclusive lock —
  // visible == base, matching PartitionedTable::ResolveRow exactly.
  std::uint64_t base = 0;
  for (const Table* part : target.parts) {
    target.bases.push_back(base);
    base += part->num_visible_rows();
  }
  return target;
}

/// Pull-based scan source that repeatedly claims a morsel from the shared
/// queue and scans it — morsels may come from any partition of the scan
/// target, so workers flow freely across partitions. Base morsels scan
/// their partition-local row range with pending inserts suppressed; a
/// partition's dedicated inserts morsel scans only that partition's PDT
/// inserts, so each pending insert is emitted exactly once across all
/// workers. The patch filter (when set) is fused into every morsel's scan,
/// exactly as in the serial PatchIndex scan.
class MorselSourceOperator : public Operator {
 public:
  MorselSourceOperator(const ScanTarget* target,
                       std::vector<std::size_t> columns,
                       ScanOptions scan_options, MorselQueue* queue,
                       obs::NodeStats* stats = nullptr,
                       obs::TraceBuffer* trace = nullptr,
                       std::uint32_t trace_tid = 0)
      : target_(target),
        cols_(std::move(columns)),
        options_(scan_options),
        queue_(queue),
        stats_(stats),
        trace_(trace),
        trace_tid_(trace_tid) {}

  std::vector<ColumnType> OutputTypes() const override {
    std::vector<ColumnType> types;
    types.reserve(cols_.size());
    const Schema& schema = target_->parts[0]->schema();
    for (std::size_t c : cols_) types.push_back(schema.field(c).type);
    return types;
  }

  void Open() override { current_.reset(); }

  bool Next(Batch* out) override {
    for (;;) {
      if (current_ == nullptr) {
        Morsel morsel;
        if (!queue_->Next(&morsel)) {
          out->Reset(OutputTypes());
          return false;
        }
        if (stats_ != nullptr) {
          stats_->morsels.fetch_add(1, std::memory_order_relaxed);
        }
        if (trace_ != nullptr) morsel_start_us_ = trace_->NowUs();
        ScanOptions opts = options_;
        opts.row_id_offset = target_->bases[morsel.partition];
        if (morsel.kind == Morsel::Kind::kBase) {
          opts.source = ScanSource::kVisible;
          opts.scan_inserts = false;
          opts.ranges = {morsel.range};
        } else {
          opts.source = ScanSource::kInsertsOnly;
        }
        current_ = std::make_unique<ScanOperator>(
            *target_->parts[morsel.partition], cols_, opts);
        current_->Open();
      }
      if (current_->Next(out)) return true;
      current_->Close();
      current_.reset();
      if (trace_ != nullptr) {
        trace_->Add("morsel", trace_tid_, morsel_start_us_,
                    trace_->NowUs() - morsel_start_us_);
      }
    }
  }

  void Close() override { current_.reset(); }

 private:
  const ScanTarget* target_;
  std::vector<std::size_t> cols_;
  ScanOptions options_;
  MorselQueue* queue_;
  obs::NodeStats* stats_;
  obs::TraceBuffer* trace_;
  std::uint32_t trace_tid_;
  std::uint64_t morsel_start_us_ = 0;
  OperatorPtr current_;
};

/// Wraps `op` in a ProfiledOperator recording into `node`'s accumulator
/// when profiling is on; passes it through untouched otherwise. The node
/// must have been registered (ExecProfile::RegisterPlan) — workers call
/// this concurrently and may only do read-only lookups.
OperatorPtr MaybeProfile(OperatorPtr op, obs::ExecProfile* profile,
                         const LogicalNode* node, bool count_rows = true) {
  if (profile == nullptr) return op;
  obs::NodeStats* stats = profile->Find(node);
  PIDX_CHECK(stats != nullptr);
  return std::make_unique<obs::ProfiledOperator>(std::move(op), stats,
                                                 count_rows);
}

/// A Scan/Select/Project pipeline decomposed for per-worker instantiation:
/// the scan leaf plus the unary operators above it, bottom-up.
struct ChainSpec {
  const LogicalNode* scan = nullptr;
  std::vector<const LogicalNode*> ops;
};

bool AnalyzeChain(const LogicalNode& node, bool selects_only,
                  ChainSpec* spec) {
  // The selects-only shape is exactly the rewriter's select-chain notion;
  // delegate the validation so the definition lives in one place.
  if (selects_only && SelectChainScan(node) == nullptr) return false;
  const LogicalNode* cur = &node;
  std::vector<const LogicalNode*> top_down;
  while (cur->kind == LogicalNode::Kind::kSelect ||
         (!selects_only && cur->kind == LogicalNode::Kind::kProject)) {
    top_down.push_back(cur);
    cur = cur->children[0].get();
  }
  if (cur->kind != LogicalNode::Kind::kScan ||
      (cur->table == nullptr && cur->ptable == nullptr)) {
    return false;
  }
  spec->scan = cur;
  spec->ops.assign(top_down.rbegin(), top_down.rend());
  return true;
}

/// Stacks the given Select/Project nodes (bottom-up order) onto `op`.
/// Expression trees are shared between workers (they are immutable and
/// Eval() is const); operator instances are per-worker.
OperatorPtr ApplyUnaryOps(OperatorPtr op,
                          const std::vector<const LogicalNode*>& ops,
                          obs::ExecProfile* profile = nullptr) {
  for (const LogicalNode* node : ops) {
    if (node->kind == LogicalNode::Kind::kSelect) {
      op = std::make_unique<SelectOperator>(std::move(op), node->predicate);
    } else {
      op = std::make_unique<ProjectOperator>(std::move(op), node->exprs);
    }
    op = MaybeProfile(std::move(op), profile, node);
  }
  return op;
}

/// Instantiates one worker's copy of the pipeline over the shared queue.
/// `target` must outlive the pipeline (the callers keep it on the stack
/// for the duration of the parallel phase).
OperatorPtr BuildWorkerChain(const ChainSpec& spec, const ScanTarget* target,
                             const ScanOptions& scan_options,
                             MorselQueue* queue,
                             obs::ExecProfile* profile = nullptr,
                             obs::TraceBuffer* trace = nullptr,
                             std::uint32_t trace_tid = 0) {
  OperatorPtr scan = std::make_unique<MorselSourceOperator>(
      target, spec.scan->columns, scan_options, queue,
      profile != nullptr ? profile->Find(spec.scan) : nullptr, trace,
      trace_tid);
  return ApplyUnaryOps(MaybeProfile(std::move(scan), profile, spec.scan),
                       spec.ops, profile);
}

/// The full shape the morsel executor handles (PatchDistinct aside): an
/// optional Sort root, over an optional Aggregate/Distinct, over either a
/// single scan pipeline or Select/Project operators above an inner equi
/// join of two scan pipelines.
struct PlanShape {
  const LogicalNode* sort = nullptr;  // kSort (limit = TopN)
  const LogicalNode* agg = nullptr;   // kAggregate / kDistinct
  const LogicalNode* join = nullptr;  // kJoin
  std::vector<const LogicalNode*> mid_ops;  // between join and agg/sort
  ChainSpec left;                           // join children
  ChainSpec right;
  ChainSpec chain;  // the single pipeline when there is no join
};

bool AnalyzeShape(const LogicalNode& plan, PlanShape* shape) {
  const LogicalNode* cur = &plan;
  if (cur->kind == LogicalNode::Kind::kSort) {
    if (cur->sort_keys.empty()) return false;
    shape->sort = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == LogicalNode::Kind::kAggregate ||
      cur->kind == LogicalNode::Kind::kDistinct) {
    // Global aggregates (no group columns) have no per-worker partial
    // form here; they fall back to the serial tree.
    if (cur->group_cols.empty()) return false;
    shape->agg = cur;
    cur = cur->children[0].get();
  }
  std::vector<const LogicalNode*> top_down;
  while (cur->kind == LogicalNode::Kind::kSelect ||
         cur->kind == LogicalNode::Kind::kProject) {
    top_down.push_back(cur);
    cur = cur->children[0].get();
  }
  if (cur->kind == LogicalNode::Kind::kScan &&
      (cur->table != nullptr || cur->ptable != nullptr)) {
    shape->chain.scan = cur;
    shape->chain.ops.assign(top_down.rbegin(), top_down.rend());
    return true;
  }
  if (cur->kind == LogicalNode::Kind::kJoin) {
    shape->join = cur;
    shape->mid_ops.assign(top_down.rbegin(), top_down.rend());
    if (!AnalyzeChain(*cur->children[0], /*selects_only=*/false,
                      &shape->left) ||
        !AnalyzeChain(*cur->children[1], /*selects_only=*/false,
                      &shape->right)) {
      return false;
    }
    const auto left_types = LogicalOutputTypes(*cur->children[0]);
    const auto right_types = LogicalOutputTypes(*cur->children[1]);
    return cur->left_key < left_types.size() &&
           cur->right_key < right_types.size() &&
           left_types[cur->left_key] == ColumnType::kInt64 &&
           right_types[cur->right_key] == ColumnType::kInt64;
  }
  return false;
}

/// Column-wise batch concatenation (string payloads are moved).
void AppendBatch(Batch* dst, Batch&& src) {
  PIDX_DCHECK(dst->columns.size() == src.columns.size());
  for (std::size_t c = 0; c < dst->columns.size(); ++c) {
    ColumnVector& d = dst->columns[c];
    ColumnVector& s = src.columns[c];
    switch (d.type) {
      case ColumnType::kInt64:
        d.i64.insert(d.i64.end(), s.i64.begin(), s.i64.end());
        break;
      case ColumnType::kDouble:
        d.f64.insert(d.f64.end(), s.f64.begin(), s.f64.end());
        break;
      case ColumnType::kString:
        d.str.insert(d.str.end(), std::make_move_iterator(s.str.begin()),
                     std::make_move_iterator(s.str.end()));
        break;
    }
  }
  dst->row_ids.insert(dst->row_ids.end(), src.row_ids.begin(),
                      src.row_ids.end());
}

/// Drains `op` with column-wise accumulation (Collect() copies row by
/// row, which would dominate wide parallel scans). Every incoming batch
/// is charged to `mem` before it is appended, so a worker materializing
/// an over-budget result aborts mid-drain rather than after the damage.
Batch DrainColumnwise(Operator& op, obs::OpMemory* mem = nullptr) {
  op.Open();
  Batch all;
  all.Reset(op.OutputTypes());
  Batch in;
  while (op.Next(&in)) {
    if (mem != nullptr) mem->Add(ApproxBytes(in));
    AppendBatch(&all, std::move(in));
  }
  op.Close();
  return all;
}

/// Awaits every future before rethrowing the first failure: unwinding
/// while workers still reference shared state (result slots, the morsel
/// queue, partition tables) would be use-after-free.
void AwaitAll(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Runs one pipeline instance per pool worker and returns the per-worker
/// results; `post` (when set) runs on each worker's drained part inside
/// the worker task — the parallel sort fuses its local sort here.
/// Futures (not WaitIdle) so concurrent queries sharing the pool only
/// await their own tasks.
std::vector<Batch> RunWorkers(
    ThreadPool& pool,
    const std::function<OperatorPtr(std::size_t)>& make_pipeline,
    const std::function<void(Batch*)>& post = nullptr,
    obs::TraceBuffer* trace = nullptr,
    obs::MemoryTracker* memory = nullptr,
    const char* mem_label = "Materialize",
    obs::NodeStats* mem_stats = nullptr) {
  const std::size_t workers = pool.num_threads();
  std::vector<Batch> parts(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool.SubmitWithFuture(
        [&parts, &make_pipeline, &post, trace, memory, mem_label, mem_stats,
         w] {
          obs::TraceSpan span(trace, "worker",
                              static_cast<std::uint32_t>(w + 1));
          // The query tracker rides the task, not the thread: pipeline
          // construction below may allocate accounted structures
          // (aggregate tables), and an over-budget charge unwinds into
          // this task's future, surfacing through AwaitAll.
          obs::ScopedQueryTracker query_mem(memory);
          obs::OpMemory mem(mem_label, mem_stats);
          OperatorPtr pipeline = make_pipeline(w);
          parts[w] = DrainColumnwise(*pipeline, &mem);
          if (post) post(&parts[w]);
        }));
  }
  AwaitAll(futures);
  return parts;
}

Batch ConcatParts(std::vector<Batch>&& parts,
                  const std::vector<ColumnType>& types) {
  // Largest part is moved instead of copied when it dwarfs the rest
  // (common under work stealing skew); everything else is appended.
  std::size_t total = 0;
  std::size_t biggest = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i].num_rows();
    if (parts[i].num_rows() > parts[biggest].num_rows()) biggest = i;
  }
  Batch out;
  if (!parts.empty() && parts[biggest].num_rows() * 2 > total &&
      parts[biggest].columns.size() == types.size()) {
    out = std::move(parts[biggest]);
    parts[biggest] = Batch{};
  } else {
    out.Reset(types);
  }
  out.row_ids.reserve(total);
  for (std::size_t c = 0; c < out.columns.size(); ++c) {
    switch (out.columns[c].type) {
      case ColumnType::kInt64:
        out.columns[c].i64.reserve(total);
        break;
      case ColumnType::kDouble:
        out.columns[c].f64.reserve(total);
        break;
      case ColumnType::kString:
        out.columns[c].str.reserve(total);
        break;
    }
  }
  for (Batch& part : parts) {
    if (part.num_rows() == 0) continue;
    AppendBatch(&out, std::move(part));
  }
  return out;
}

/// Merge aggregation over concatenated per-worker partial aggregates:
/// group keys re-group on their own positions; partial counts merge by
/// summation, sums/mins/maxs by their own operator.
Batch MergeAggregateParts(std::vector<Batch>&& parts,
                          const std::vector<ColumnType>& partial_types,
                          std::size_t num_group_cols,
                          const std::vector<AggSpec>& aggs) {
  Batch all = ConcatParts(std::move(parts), partial_types);
  std::vector<std::size_t> group_cols(num_group_cols);
  for (std::size_t g = 0; g < num_group_cols; ++g) group_cols[g] = g;
  std::vector<AggSpec> merged;
  merged.reserve(aggs.size());
  for (std::size_t j = 0; j < aggs.size(); ++j) {
    AggSpec spec;
    spec.column = num_group_cols + j;
    spec.op = aggs[j].op == AggOp::kCount ? AggOp::kSum : aggs[j].op;
    merged.push_back(spec);
  }
  HashAggregateOperator merge(
      std::make_unique<InMemorySource>(std::move(all)), group_cols, merged);
  return Collect(merge);
}

// --------------------------------------------------------------- join

/// Streams the probe pipeline against the read-only partition tables and
/// emits matches in the join's logical left-then-right column layout
/// (the serial tree reaches the same layout via a reordering Project).
/// Output rowIDs are the probe side's, and batches are bounded at
/// ~kBatchSize, both as in HashJoinOperator.
class PartitionProbeOperator : public Operator {
 public:
  PartitionProbeOperator(OperatorPtr child,
                         const std::vector<JoinHashTable>* partitions,
                         std::size_t mask, std::size_t probe_key,
                         bool build_is_left,
                         std::vector<ColumnType> build_types)
      : child_(std::move(child)),
        partitions_(partitions),
        mask_(mask),
        probe_key_(probe_key),
        probe_width_(child_->OutputTypes().size()),
        build_width_(build_types.size()),
        build_off_(build_is_left ? 0 : probe_width_),
        probe_off_(build_is_left ? build_width_ : 0) {
    std::vector<ColumnType> probe_types = child_->OutputTypes();
    if (build_is_left) {
      output_types_ = std::move(build_types);
      output_types_.insert(output_types_.end(), probe_types.begin(),
                           probe_types.end());
    } else {
      output_types_ = std::move(probe_types);
      output_types_.insert(output_types_.end(), build_types.begin(),
                           build_types.end());
    }
  }

  std::vector<ColumnType> OutputTypes() const override {
    return output_types_;
  }

  void Open() override {
    child_->Open();
    probe_pos_ = 0;
    probe_done_ = false;
    probe_batch_.Clear();
  }

  bool Next(Batch* out) override {
    out->Reset(output_types_);
    while (out->num_rows() < kBatchSize) {
      if (probe_pos_ >= probe_batch_.num_rows()) {
        if (probe_done_ || !child_->Next(&probe_batch_)) {
          probe_done_ = true;
          break;
        }
        probe_pos_ = 0;
        continue;
      }
      const std::size_t i = probe_pos_++;
      const std::int64_t key = probe_batch_.columns[probe_key_].i64[i];
      const JoinHashTable& table =
          (*partitions_)[JoinKeyPartition(key, mask_)];
      const Batch& build = table.rows();
      table.ForEachMatch(key, [&](std::size_t b) {
        for (std::size_t c = 0; c < build_width_; ++c) {
          out->columns[build_off_ + c].AppendFrom(build.columns[c], b);
        }
        for (std::size_t c = 0; c < probe_width_; ++c) {
          out->columns[probe_off_ + c].AppendFrom(probe_batch_.columns[c],
                                                  i);
        }
        out->row_ids.push_back(probe_batch_.row_ids[i]);
      });
    }
    return out->num_rows() > 0;
  }

  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  const std::vector<JoinHashTable>* partitions_;
  std::size_t mask_;
  std::size_t probe_key_;
  std::size_t probe_width_;
  std::size_t build_width_;
  std::size_t build_off_;
  std::size_t probe_off_;
  std::vector<ColumnType> output_types_;

  Batch probe_batch_;
  std::size_t probe_pos_ = 0;
  bool probe_done_ = false;
};

/// Phases one and two of the parallel join: every worker drains the build
/// pipeline over a shared morsel queue, hash-partitioning its rows into
/// per-worker spill batches; after the barrier, one task per partition
/// assembles that partition's hash table from all workers' spills. When
/// the rewriter annotated a NUC index on the build key, rows the index
/// proves unique skip duplicate chaining (exceptions and pending inserts
/// take the chained path; see JoinHashTable for why this stays exact).
std::vector<JoinHashTable> BuildJoinPartitions(
    const ChainSpec& build_spec, const ScanTarget& build_target,
    std::size_t build_key, const std::vector<ColumnType>& build_types,
    const PatchIndex* build_nuc, std::size_t mask, ThreadPool& pool,
    const ParallelExecOptions& options, obs::ExecProfile* profile,
    obs::NodeStats* join_stats) {
  const std::size_t workers = pool.num_threads();
  const std::size_t num_partitions = mask + 1;
  MorselQueue queue(build_target.FullWork(), options.morsel_rows);
  const ScanOptions scan_opts;

  std::vector<std::vector<Batch>> spill(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool.SubmitWithFuture([&, w] {
      obs::TraceSpan span(options.trace, "join_build",
                          static_cast<std::uint32_t>(w + 1));
      obs::ScopedQueryTracker query_mem(options.memory);
      obs::OpMemory mem("HashJoin build", join_stats);
      std::vector<Batch>& local = spill[w];
      local.resize(num_partitions);
      for (Batch& b : local) b.Reset(build_types);
      OperatorPtr pipeline = BuildWorkerChain(
          build_spec, &build_target, scan_opts, &queue, profile, options.trace,
          static_cast<std::uint32_t>(w + 1));
      pipeline->Open();
      Batch in;
      while (pipeline->Next(&in)) {
        mem.Add(ApproxBytes(in));
        const auto& keys = in.columns[build_key].i64;
        for (std::size_t i = 0; i < in.num_rows(); ++i) {
          local[JoinKeyPartition(keys[i], mask)].AppendRowFrom(in, i);
        }
      }
      pipeline->Close();
    }));
  }
  AwaitAll(futures);  // barrier between build scan and table assembly

  std::vector<JoinHashTable> partitions(num_partitions);
  futures.clear();
  futures.reserve(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    futures.push_back(pool.SubmitWithFuture([&, p] {
      obs::ScopedQueryTracker query_mem(options.memory);
      obs::OpMemory mem("HashJoin build", join_stats);
      JoinHashTable& t = partitions[p];
      t.Reset(build_types);
      std::size_t partition_rows = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        partition_rows += spill[w][p].num_rows();
      }
      t.Reserve(partition_rows);
      for (std::size_t w = 0; w < workers; ++w) {
        const Batch& b = spill[w][p];
        const auto& keys = b.columns[build_key].i64;
        for (std::size_t i = 0; i < b.num_rows(); ++i) {
          const bool hint = build_nuc != nullptr &&
                            b.row_ids[i] < build_nuc->NumRows() &&
                            !build_nuc->IsPatch(b.row_ids[i]);
          t.AddRow(b, i, keys[i], hint);
          if ((i & 1023u) == 1023u) mem.GrowTo(t.ApproxBytes());
        }
      }
      mem.GrowTo(t.ApproxBytes());
    }));
  }
  AwaitAll(futures);
  return partitions;
}

// ------------------------------------------------------- patch distinct

bool IsSupportedPatchConstraint(const PatchIndex* idx) {
  return idx != nullptr &&
         (idx->constraint() == ConstraintKind::kNearlyUnique ||
          idx->constraint() == ConstraintKind::kNearlyConstant);
}

/// The PatchDistinct rewrite (paper §3.3 Figure 2 left), morsel-parallel:
/// phase one streams the constraint-satisfying tuples (unaggregated — the
/// constraint guarantees uniqueness), phase two aggregates the patches
/// per worker and merges. For an NCC index the excluded subtree collapses
/// into the materialized constant instead of a scan phase.
bool ExecutePatchDistinct(const LogicalNode& node, ThreadPool& pool,
                          const ParallelExecOptions& options, Batch* out) {
  const PatchIndex* idx = node.pidx;
  ChainSpec spec;
  if (!AnalyzeChain(*node.children[0], /*selects_only=*/true, &spec)) {
    return false;
  }
  // Patch rewrites only fire on single-table scans (FindIndex requires
  // the plain-table view), so the target is always one partition here.
  const Table& table = *spec.scan->table;
  const ScanTarget target = TargetOf(*spec.scan);
  if (table.num_visible_rows() < options.min_parallel_rows) return false;
  obs::ExecProfile* profile = options.profile;
  if (profile != nullptr) profile->RegisterPlan(node);
  obs::NodeStats* node_stats =
      profile != nullptr ? profile->Find(&node) : nullptr;
  WallTimer total_timer;
  const std::vector<ColumnType> out_types = LogicalOutputTypes(node);

  std::vector<ExprPtr> group_exprs;
  for (std::size_t c : node.group_cols) group_exprs.push_back(Col(c));

  Batch result;
  result.Reset(out_types);

  if (idx->constraint() == ConstraintKind::kNearlyConstant) {
    if (idx->NumRows() > idx->NumPatches() && idx->has_constant()) {
      result.columns[0].i64.push_back(idx->constant_value());
      result.row_ids.push_back(0);
    }
  } else {
    // Exclude-patches phase: tuples satisfying the NUC are unique, so the
    // aggregation is dropped and workers stream them straight through.
    MorselQueue exclude_queue(target.FullWork(), options.morsel_rows);
    ScanOptions exclude_opts;
    exclude_opts.patch_filter = idx;
    exclude_opts.patch_mode = PatchSelectMode::kExcludePatches;
    std::vector<Batch> parts = RunWorkers(
        pool,
        [&spec, &target, &exclude_opts, &exclude_queue, &group_exprs, profile,
         &options](std::size_t w) -> OperatorPtr {
          return std::make_unique<ProjectOperator>(
              BuildWorkerChain(spec, &target, exclude_opts, &exclude_queue,
                               profile, options.trace,
                               static_cast<std::uint32_t>(w + 1)),
              group_exprs);
        },
        nullptr, options.trace, options.memory, "PatchDistinct", node_stats);
    Batch excluded = ConcatParts(std::move(parts), out_types);
    AppendBatch(&result, std::move(excluded));
  }

  // Use-patches phase: per-worker distinct over the exceptions, merged by
  // a final distinct.
  MorselQueue use_queue(target.FullWork(), options.morsel_rows);
  ScanOptions use_opts;
  use_opts.patch_filter = idx;
  use_opts.patch_mode = PatchSelectMode::kUsePatches;
  std::vector<Batch> parts = RunWorkers(
      pool,
      [&spec, &target, &use_opts, &use_queue, &node, profile,
       &options](std::size_t w) -> OperatorPtr {
        return std::make_unique<HashAggregateOperator>(
            BuildWorkerChain(spec, &target, use_opts, &use_queue, profile,
                             options.trace,
                             static_cast<std::uint32_t>(w + 1)),
            node.group_cols, std::vector<AggSpec>{});
      },
      nullptr, options.trace, options.memory, "PatchDistinct", node_stats);
  HashAggregateOperator merge(
      std::make_unique<InMemorySource>(ConcatParts(std::move(parts),
                                                   out_types)),
      std::vector<std::size_t>{0}, std::vector<AggSpec>{});
  Batch patches = Collect(merge);
  if (idx->constraint() == ConstraintKind::kNearlyConstant) {
    // Deduplicate against the constant: a patch row modified back to the
    // constant may still hold it (mirrors the serial plan's selection).
    Batch filtered;
    filtered.Reset(out_types);
    for (std::size_t i = 0; i < patches.num_rows(); ++i) {
      if (patches.columns[0].i64[i] != idx->constant_value()) {
        filtered.AppendRowFrom(patches, i);
      }
    }
    patches = std::move(filtered);
  }
  AppendBatch(&result, std::move(patches));
  if (profile != nullptr) {
    // The PatchDistinct node itself is the coordinator's merge: final
    // rows and end-to-end wall time (its scan chain ran twice — once per
    // phase — so the chain nodes below it accumulate both passes).
    obs::NodeStats* stats = profile->Find(&node);
    stats->rows.store(result.num_rows(), std::memory_order_relaxed);
    stats->workers.store(1, std::memory_order_relaxed);
    stats->time_ns.store(
        static_cast<std::uint64_t>(total_timer.ElapsedNanos()),
        std::memory_order_relaxed);
  }
  *out = std::move(result);
  return true;
}

}  // namespace

bool ParallelPlanSupported(const LogicalNode& plan) {
  if (plan.kind == LogicalNode::Kind::kPatchDistinct) {
    // Single group column only: the rewriter never emits more, and the
    // final use-patches merge (and the NCC constant row) assume it.
    ChainSpec spec;
    return IsSupportedPatchConstraint(plan.pidx) &&
           plan.group_cols.size() == 1 &&
           AnalyzeChain(*plan.children[0], /*selects_only=*/true, &spec);
  }
  PlanShape shape;
  return AnalyzeShape(plan, &shape);
}

bool ExecuteParallel(const LogicalNode& plan, ThreadPool& pool,
                     const ParallelExecOptions& options, Batch* out,
                     ParallelExecReport* report) {
  if (plan.kind == LogicalNode::Kind::kPatchDistinct) {
    return ParallelPlanSupported(plan) &&
           ExecutePatchDistinct(plan, pool, options, out);
  }
  PlanShape shape;
  if (!AnalyzeShape(plan, &shape)) return false;

  // Size gating: below the threshold, forking workers costs more than
  // running the serial tree. For a join, the larger input drives.
  std::uint64_t driving_rows;
  if (shape.join != nullptr) {
    driving_rows = std::max(ScanVisibleRows(*shape.left.scan),
                            ScanVisibleRows(*shape.right.scan));
  } else {
    driving_rows = ScanVisibleRows(*shape.chain.scan);
  }
  if (driving_rows < options.min_parallel_rows) return false;

  obs::ExecProfile* profile = options.profile;
  if (profile != nullptr) profile->RegisterPlan(plan);

  // A Sort directly over the pipeline runs as per-worker local sorts plus
  // a k-way merge; a Sort over an Aggregate is applied serially to the
  // merged (small) aggregate result instead.
  const bool local_sort = shape.sort != nullptr && shape.agg == nullptr;
  std::function<void(Batch*)> post;
  if (local_sort) {
    const LogicalNode* sort = shape.sort;
    obs::NodeStats* sort_stats =
        profile != nullptr ? profile->Find(sort) : nullptr;
    post = [sort, sort_stats](Batch* part) {
      WallTimer timer;
      SortBatchRows(part, sort->sort_keys, sort->limit);
      if (sort_stats != nullptr) {
        sort_stats->workers.fetch_add(1, std::memory_order_relaxed);
        sort_stats->AddWorkerTime(
            static_cast<std::uint64_t>(timer.ElapsedNanos()));
      }
    };
  }

  // Memory attribution for the per-worker result materialization: sort
  // buffers belong to the Sort node, partial-aggregate outputs to the
  // Aggregate node, and a plain pipeline's result to the plan root.
  const LogicalNode* mat_node = local_sort               ? shape.sort
                                : shape.agg != nullptr   ? shape.agg
                                                         : &plan;
  const char* mat_label = local_sort             ? "Sort"
                          : shape.agg != nullptr ? "HashAggregate"
                                                 : "Materialize";
  obs::NodeStats* mat_stats =
      profile != nullptr ? profile->Find(mat_node) : nullptr;

  std::vector<Batch> parts;
  if (shape.join != nullptr) {
    const LogicalNode& join = *shape.join;
    // Build on the side with the lower estimated cardinality (§3.3: the
    // patches/dimension side is typically the smallest). The serial tree
    // additionally prefers a sorted child as build to preserve probe-side
    // order — irrelevant here, where worker interleaving loses input
    // order anyway.
    const bool build_left = EstimateCardinality(*join.children[0]) <=
                            EstimateCardinality(*join.children[1]);
    const ChainSpec& build_spec = build_left ? shape.left : shape.right;
    const ChainSpec& probe_spec = build_left ? shape.right : shape.left;
    const std::size_t build_key = build_left ? join.left_key : join.right_key;
    const std::size_t probe_key = build_left ? join.right_key : join.left_key;
    const PatchIndex* build_nuc =
        build_left ? join.left_key_nuc : join.right_key_nuc;
    const std::vector<ColumnType> build_types =
        LogicalOutputTypes(*join.children[build_left ? 0 : 1]);

    std::size_t partition_bits = 0;
    while ((std::size_t{1} << partition_bits) < pool.num_threads()) {
      ++partition_bits;
    }
    const std::size_t mask = (std::size_t{1} << partition_bits) - 1;

    const ScanTarget build_target = TargetOf(*build_spec.scan);
    WallTimer build_timer;
    const std::vector<JoinHashTable> partitions = BuildJoinPartitions(
        build_spec, build_target, build_key, build_types, build_nuc, mask,
        pool, options, profile,
        profile != nullptr ? profile->Find(shape.join) : nullptr);
    if (profile != nullptr) {
      profile->Find(shape.join)->build_ns.store(
          static_cast<std::uint64_t>(build_timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }

    const ScanTarget probe_target = TargetOf(*probe_spec.scan);
    MorselQueue probe_queue(probe_target.FullWork(), options.morsel_rows);
    const ScanOptions scan_opts;
    parts = RunWorkers(
        pool,
        [&](std::size_t w) {
          OperatorPtr op = BuildWorkerChain(
              probe_spec, &probe_target, scan_opts, &probe_queue, profile,
              options.trace, static_cast<std::uint32_t>(w + 1));
          op = std::make_unique<PartitionProbeOperator>(
              std::move(op), &partitions, mask, probe_key, build_left,
              build_types);
          op = MaybeProfile(std::move(op), profile, shape.join);
          op = ApplyUnaryOps(std::move(op), shape.mid_ops, profile);
          if (shape.agg != nullptr) {
            auto agg = std::make_unique<HashAggregateOperator>(
                std::move(op), shape.agg->group_cols,
                shape.agg->kind == LogicalNode::Kind::kAggregate
                    ? shape.agg->aggs
                    : std::vector<AggSpec>{});
            agg->SetMemoryStats(mat_stats);
            op = std::move(agg);
            // Per-worker partial-group counts depend on morsel scheduling;
            // the coordinator stores the merged count below instead.
            op = MaybeProfile(std::move(op), profile, shape.agg,
                              /*count_rows=*/false);
          }
          return op;
        },
        post, options.trace, options.memory, mat_label, mat_stats);
  } else {
    const ScanTarget target = TargetOf(*shape.chain.scan);
    MorselQueue queue(target.FullWork(), options.morsel_rows);
    const ScanOptions scan_opts;  // plain kVisible scan, as the serial tree
    parts = RunWorkers(
        pool,
        [&](std::size_t w) {
          OperatorPtr op = BuildWorkerChain(
              shape.chain, &target, scan_opts, &queue, profile, options.trace,
              static_cast<std::uint32_t>(w + 1));
          if (shape.agg != nullptr) {
            auto agg = std::make_unique<HashAggregateOperator>(
                std::move(op), shape.agg->group_cols,
                shape.agg->kind == LogicalNode::Kind::kAggregate
                    ? shape.agg->aggs
                    : std::vector<AggSpec>{});
            agg->SetMemoryStats(mat_stats);
            op = std::move(agg);
            op = MaybeProfile(std::move(op), profile, shape.agg,
                              /*count_rows=*/false);
          }
          return op;
        },
        post, options.trace, options.memory, mat_label, mat_stats);
  }

  const std::vector<ColumnType> out_types = LogicalOutputTypes(plan);
  if (shape.agg != nullptr) {
    WallTimer merge_timer;
    Batch merged = MergeAggregateParts(
        std::move(parts), out_types, shape.agg->group_cols.size(),
        shape.agg->kind == LogicalNode::Kind::kAggregate
            ? shape.agg->aggs
            : std::vector<AggSpec>{});
    if (profile != nullptr) {
      obs::NodeStats* agg_stats = profile->Find(shape.agg);
      agg_stats->rows.store(merged.num_rows(), std::memory_order_relaxed);
      agg_stats->time_ns.fetch_add(
          static_cast<std::uint64_t>(merge_timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
    if (shape.sort != nullptr) {
      WallTimer sort_timer;
      SortBatchRows(&merged, shape.sort->sort_keys, shape.sort->limit);
      if (profile != nullptr) {
        obs::NodeStats* sort_stats = profile->Find(shape.sort);
        sort_stats->rows.store(merged.num_rows(), std::memory_order_relaxed);
        sort_stats->workers.store(1, std::memory_order_relaxed);
        sort_stats->AddWorkerTime(
            static_cast<std::uint64_t>(sort_timer.ElapsedNanos()));
      }
    }
    *out = std::move(merged);
  } else if (local_sort) {
    WallTimer merge_timer;
    *out = MergeSortedBatches(std::move(parts), shape.sort->sort_keys,
                              shape.sort->limit);
    if (profile != nullptr) {
      obs::NodeStats* sort_stats = profile->Find(shape.sort);
      sort_stats->rows.store(out->num_rows(), std::memory_order_relaxed);
      sort_stats->time_ns.fetch_add(
          static_cast<std::uint64_t>(merge_timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
  } else {
    *out = ConcatParts(std::move(parts), out_types);
  }

  if (report != nullptr) {
    report->parallel_join = shape.join != nullptr;
    report->parallel_sort = local_sort;
  }
  return true;
}

}  // namespace patchindex
