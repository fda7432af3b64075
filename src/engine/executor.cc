#include "engine/executor.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/merge_probe.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort_merge.h"
#include "obs/mem_tracker.h"
#include "obs/profile.h"
#include "obs/profiled_operator.h"
#include "obs/trace.h"
#include "optimizer/scan_pruning.h"
#include "patchindex/patch_index.h"

namespace patchindex {
namespace {

/// The storage behind one scan node, flattened to partitions: a plain
/// table is a single "partition" at global base 0; a multi-partition
/// PartitionedTable lists every partition with its global base-row offset
/// (scans add it to their rowIDs so output rowIDs are table-global,
/// matching PartitionedTable::ResolveRow).
///
/// For catalog tables, PinnedReadSet retargeted the scan node's table
/// pointers at the immutable snapshot of a pinned TableVersion, so
/// everything below reads frozen state with no table lock held. A
/// free-standing table (benches, tests) is read as is. Either way a plan
/// reads checkpointed tables only: a partition with pending PDT deltas
/// aborts here, before any scan is built.
struct ScanTarget {
  const LogicalNode* scan = nullptr;
  std::vector<const Table*> parts;
  std::vector<std::uint64_t> bases;

  /// The scan's morsel spec: every partition's base rows the scan's block
  /// pruning kept (all of them when unpruned).
  std::vector<MorselPartition> FullWork() const {
    std::vector<MorselPartition> work;
    work.reserve(parts.size());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      work.push_back({p, ScanBaseRanges(*scan, p)});
    }
    return work;
  }
};

ScanTarget TargetOf(const LogicalNode& scan) {
  ScanTarget target;
  target.scan = &scan;
  target.parts = ScanPartitions(scan);
  std::uint64_t base = 0;
  for (const Table* part : target.parts) {
    PIDX_CHECK_MSG(part->pdt().empty(),
                   "a plan reads checkpointed tables only; commit or "
                   "checkpoint the pending deltas first");
    target.bases.push_back(base);
    base += part->num_rows();
  }
  return target;
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

/// Drains an opened `op` with column-wise accumulation (Collect() copies
/// row by row, which would dominate wide scans). Every incoming batch is
/// charged to `mem` before it is appended, so a worker materializing an
/// over-budget result aborts mid-drain rather than after the damage.
Batch DrainOpened(Operator& op, obs::OpMemory* mem) {
  Batch all;
  all.Reset(op.OutputTypes());
  Batch in;
  while (op.Next(&in)) {
    mem->Add(ApproxBytes(in));
    AppendBatch(&all, std::move(in));
  }
  return all;
}

Batch DrainColumnwise(Operator& op, obs::OpMemory* mem) {
  op.Open();
  Batch all = DrainOpened(op, mem);
  op.Close();
  return all;
}

/// Appends `parts` in order. The first part is moved rather than copied
/// when it holds more than half of the rows (one worker's drain holds all
/// of them); an unordered caller swaps its biggest part to the front.
Batch ConcatParts(std::vector<Batch>&& parts,
                  const std::vector<ColumnType>& types) {
  std::size_t total = 0;
  for (const Batch& part : parts) total += part.num_rows();
  Batch out;
  if (!parts.empty() && parts[0].num_rows() * 2 > total &&
      parts[0].columns.size() == types.size()) {
    out = std::move(parts[0]);
    parts[0] = Batch{};
  } else {
    out.Reset(types);
  }
  if (out.num_rows() == total) return out;
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

/// Moves the part with the most rows to the front, for ConcatParts.
void BiggestFirst(std::vector<Batch>* parts) {
  if (parts->empty()) return;
  std::iter_swap(parts->begin(),
                 std::max_element(parts->begin(), parts->end(),
                                  [](const Batch& a, const Batch& b) {
                                    return a.num_rows() < b.num_rows();
                                  }));
}

/// Merge aggregation over concatenated per-worker partial aggregates:
/// group keys re-group on their own positions; partial counts merge by
/// summation, sums/mins/maxs by their own operator.
Batch MergeAggregateParts(std::vector<Batch>&& parts,
                          const std::vector<ColumnType>& partial_types,
                          std::size_t num_group_cols,
                          const std::vector<AggSpec>& aggs) {
  BiggestFirst(&parts);
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

// ------------------------------------------------------------ pipelines

/// Builds one worker's instance of a streaming operator over its input.
using OpFactory = std::function<OperatorPtr(OperatorPtr)>;

/// One morsel-driven input of a pipeline: the shared morsel queue, the
/// leaf operator each claimed morsel opens, and the streaming operators
/// stacked on the leaves.
struct Branch {
  std::shared_ptr<MorselQueue> queue;
  std::function<OperatorPtr(const Morsel&)> leaf;
  std::vector<ColumnType> types;  // the leaf's output
  /// The plan node profiled as the leaf (scans); null for batch sources.
  const LogicalNode* leaf_node = nullptr;
  std::vector<OpFactory> ops;  // bottom-up
};

/// A plan fragment every worker runs a copy of: its branches — one,
/// except PatchJoin's merge and hash branches, which a worker drains back
/// to back — then the operators above them, bottom-up. Factories own
/// what they reference, so pipelines are passed by value.
struct Pipeline {
  std::vector<Branch> branches;
  std::vector<OpFactory> ops;
};

/// Emits rows `range` of a materialized batch in kBatchSize chunks: the
/// morsel leaf over an input that was executed first.
class BatchSliceSource : public Operator {
 public:
  BatchSliceSource(const Batch* data, RowRange range)
      : data_(data), range_(range) {}

  std::vector<ColumnType> OutputTypes() const override {
    return data_->types();
  }
  void Open() override { pos_ = range_.begin; }
  bool Next(Batch* out) override {
    out->Reset(OutputTypes());
    const std::size_t end =
        std::min<std::size_t>(range_.end, pos_ + kBatchSize);
    if (pos_ >= end) return false;
    out->AppendRows(*data_, pos_, end);
    pos_ = end;
    return true;
  }

 private:
  const Batch* data_;
  RowRange range_;
  std::size_t pos_ = 0;
};

/// Claims morsels from a branch's shared queue and drains, per morsel, the
/// leaf the branch opens for it — a range scan of one partition (morsels
/// may come from any partition, so workers flow freely across them) or a
/// slice of a materialized batch. In one-morsel mode each Open() claims a
/// single morsel and the stream ends with it: the ordered drain re-opens
/// the pipeline per morsel and files each morsel's output under its queue
/// position.
class MorselSourceOperator : public Operator {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  MorselSourceOperator(const Branch* branch, bool one_morsel,
                       obs::NodeStats* stats, obs::TraceBuffer* trace,
                       std::uint32_t trace_tid)
      : branch_(branch),
        one_morsel_(one_morsel),
        stats_(stats),
        trace_(trace),
        trace_tid_(trace_tid) {}

  std::vector<ColumnType> OutputTypes() const override {
    return branch_->types;
  }

  void Open() override {
    EndMorsel();
    seq_ = kNone;
    if (one_morsel_) Claim();
  }

  bool Next(Batch* out) override {
    for (;;) {
      if (current_ == nullptr && (one_morsel_ || !Claim())) {
        out->Reset(branch_->types);
        return false;
      }
      if (current_->Next(out)) return true;
      EndMorsel();
    }
  }

  void Close() override { EndMorsel(); }

  /// Queue position of the morsel the last Open() claimed in one-morsel
  /// mode; kNone once the queue is drained.
  std::size_t seq() const { return seq_; }

 private:
  bool Claim() {
    Morsel morsel;
    if (!branch_->queue->Next(&morsel)) return false;
    seq_ = morsel.seq;
    if (stats_ != nullptr) {
      stats_->morsels.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace_ != nullptr) morsel_start_us_ = trace_->NowUs();
    current_ = branch_->leaf(morsel);
    current_->Open();
    return true;
  }

  void EndMorsel() {
    if (current_ == nullptr) return;
    current_->Close();
    current_.reset();
    if (trace_ != nullptr) {
      trace_->Add("morsel", trace_tid_, morsel_start_us_,
                  trace_->NowUs() - morsel_start_us_);
    }
  }

  const Branch* branch_;
  bool one_morsel_;
  obs::NodeStats* stats_;
  obs::TraceBuffer* trace_;
  std::uint32_t trace_tid_;
  std::uint64_t morsel_start_us_ = 0;
  std::size_t seq_ = kNone;
  OperatorPtr current_;
};

// --------------------------------------------------------------- joins

ScanOptions PatchScan(const PatchIndex* idx, PatchSelectMode mode) {
  ScanOptions opts;
  opts.patch_filter = idx;
  opts.patch_mode = mode;
  return opts;
}

// ------------------------------------------------------------ executor

/// Lowers and runs one plan. Everything that materializes — aggregates,
/// sorts, join builds, non-chain inputs — happens on the calling
/// (coordinator) thread, which waits only for its own phases' tasks.
class Executor {
 public:
  Executor(ThreadPool& pool, const ParallelExecOptions& options,
           ParallelExecReport* report)
      : pool_(pool), options_(options), report_(report) {}

  /// Executes `node` to its materialized rows — in the input's row order
  /// when `ordered` (PatchJoin's sorted X); a plain result's order is
  /// whatever its workers produced.
  Batch Run(const LogicalNode& node, bool ordered = false) {
    switch (node.kind) {
      case LogicalNode::Kind::kAggregate:
      case LogicalNode::Kind::kDistinct:
        return Aggregate(Lower(*node.children[0]), node);
      case LogicalNode::Kind::kSort:
        return MergeRuns(SortedRuns(Lower(*node.children[0]), node), node);
      case LogicalNode::Kind::kPatchDistinct:
        return PatchDistinct(node);
      case LogicalNode::Kind::kPatchSort:
        return PatchSort(node);
      default:
        return Drain(Lower(node), LogicalOutputTypes(node), node, ordered);
    }
  }

 private:
  obs::NodeStats* Stats(const LogicalNode* node) const {
    return options_.profile != nullptr && node != nullptr
               ? options_.profile->Find(node)
               : nullptr;
  }

  /// Wraps `op` in a ProfiledOperator recording into `node`'s accumulator
  /// when profiling is on; passes it through untouched otherwise. Workers
  /// call this concurrently: the plan was registered up front, so the
  /// lookup is read-only.
  OperatorPtr MaybeProfile(OperatorPtr op, const LogicalNode* node,
                           bool count_rows = true) const {
    obs::NodeStats* stats = Stats(node);
    if (stats == nullptr) return op;
    return std::make_unique<obs::ProfiledOperator>(std::move(op), stats,
                                                   count_rows);
  }

  std::size_t Workers(const Pipeline& p) const {
    std::size_t morsels = 0;
    for (const Branch& b : p.branches) morsels += b.queue->num_morsels();
    return std::max<std::size_t>(1, std::min(morsels, pool_.num_threads()));
  }

  /// Raises `node`'s worker count to the `n` workers that drained one of
  /// its branches. A patch node's operators count the workers of its
  /// patch branch; its excluded branch drains unprofiled, and when the
  /// patch branch is pruned that drain is the only one that ran.
  void CountBranchWorkers(const LogicalNode& node, std::size_t n) const {
    obs::NodeStats* stats = Stats(&node);
    if (stats == nullptr) return;
    if (stats->workers.load(std::memory_order_relaxed) < n) {
      stats->workers.store(n, std::memory_order_relaxed);
    }
  }

  /// Runs task(i) for i in [0, n) through ThreadPool::ParallelFor: inline
  /// when n is 1, else awaiting only this query's own tasks, every one of
  /// which finishes before a failure is rethrown (workers reference
  /// coordinator-owned result slots, the morsel queue, partition tables).
  void RunTasks(std::size_t n, const char* span,
                const std::function<void(std::size_t)>& task) {
    report_->workers =
        std::max(report_->workers, std::min(n, pool_.num_threads()));
    pool_.ParallelFor(n, [&](std::size_t i) {
      obs::TraceSpan trace_span(span != nullptr ? options_.trace : nullptr,
                                span, static_cast<std::uint32_t>(i + 1));
      // The query tracker rides the task, not the thread: operator
      // construction may allocate accounted structures, and an
      // over-budget charge unwinds into this task.
      obs::ScopedQueryTracker query_mem(options_.memory);
      task(i);
    });
  }

  /// Worker `w`'s copy of `p`'s operator stack. With `source` set, the
  /// (single) branch runs in one-morsel mode and its source is returned.
  OperatorPtr Instantiate(const Pipeline& p, std::size_t w,
                          MorselSourceOperator** source = nullptr) const {
    std::vector<OperatorPtr> stacks;
    for (const Branch& b : p.branches) {
      auto src = std::make_unique<MorselSourceOperator>(
          &b, source != nullptr, Stats(b.leaf_node), options_.trace,
          static_cast<std::uint32_t>(w + 1));
      if (source != nullptr) *source = src.get();
      OperatorPtr op = MaybeProfile(std::move(src), b.leaf_node);
      for (const OpFactory& f : b.ops) op = f(std::move(op));
      stacks.push_back(std::move(op));
    }
    OperatorPtr op = stacks.size() == 1
                         ? std::move(stacks[0])
                         : std::make_unique<UnionOperator>(std::move(stacks));
    for (const OpFactory& f : p.ops) op = f(std::move(op));
    return op;
  }

  /// Runs `p` on its workers; `finish` drains a worker's stack (the
  /// pipeline's sink) into that worker's part.
  std::vector<Batch> RunPipeline(
      const Pipeline& p, const std::function<Batch(OperatorPtr)>& finish) {
    std::vector<Batch> parts(Workers(p));
    RunTasks(parts.size(), "worker", [&](std::size_t w) {
      parts[w] = finish(Instantiate(p, w));
    });
    return parts;
  }

  /// The streaming form of `node`: scan chains and join probes stay in the
  /// pipeline; any other child is executed first — here, on the
  /// coordinator, never inside a worker task, which could wait on its own
  /// pool — and read back as a morsel source. `leaf` carries the patch
  /// filter a rewrite fuses into the chain's scan.
  Pipeline Lower(const LogicalNode& node, const ScanOptions& leaf = {}) {
    switch (node.kind) {
      case LogicalNode::Kind::kScan:
        return ScanPipeline(node, leaf);
      case LogicalNode::Kind::kSelect:
      case LogicalNode::Kind::kProject: {
        Pipeline p = Lower(*node.children[0], leaf);
        p.ops.push_back([this, &node](OperatorPtr op) -> OperatorPtr {
          if (node.kind == LogicalNode::Kind::kSelect) {
            op = std::make_unique<SelectOperator>(std::move(op),
                                                  node.predicate);
          } else {
            op = std::make_unique<ProjectOperator>(std::move(op), node.exprs);
          }
          return MaybeProfile(std::move(op), &node);
        });
        return p;
      }
      case LogicalNode::Kind::kJoin:
        return LowerJoin(node);
      case LogicalNode::Kind::kPatchJoin:
        return LowerPatchJoin(node);
      default:
        return BatchPipeline(std::make_shared<const Batch>(Run(node)));
    }
  }

  Pipeline ScanPipeline(const LogicalNode& scan,
                        const ScanOptions& opts) const {
    auto target = std::make_shared<const ScanTarget>(TargetOf(scan));
    Branch b;
    b.queue = std::make_shared<MorselQueue>(target->FullWork(),
                                            options_.morsel_rows);
    b.leaf = [target, opts](const Morsel& m) -> OperatorPtr {
      ScanOptions o = opts;
      o.row_id_offset = target->bases[m.partition];
      o.ranges = {m.range};
      return std::make_unique<ScanOperator>(*target->parts[m.partition],
                                            target->scan->columns, o);
    };
    b.types = LogicalOutputTypes(scan);
    b.leaf_node = &scan;
    Pipeline p;
    p.branches.push_back(std::move(b));
    return p;
  }

  Pipeline BatchPipeline(std::shared_ptr<const Batch> data) const {
    Branch b;
    b.queue = std::make_shared<MorselQueue>(
        std::vector<RowRange>{{0, data->num_rows()}}, options_.morsel_rows);
    b.types = data->types();
    b.leaf = [data](const Morsel& m) -> OperatorPtr {
      return std::make_unique<BatchSliceSource>(data.get(), m.range);
    };
    Pipeline p;
    p.branches.push_back(std::move(b));
    return p;
  }

  /// Phases one and two of a hash join's build: every worker drains the
  /// build pipeline, hash-partitioning its rows into per-worker spill
  /// batches; after the barrier, one task per partition assembles that
  /// partition's hash table from all workers' spills. With a NUC index on
  /// the build key (annotated by the rewriter), rows the index proves
  /// unique skip duplicate chaining (exceptions take the chained path; see
  /// JoinHashTable for why this stays exact).
  PartitionedHashTables BuildHashTables(const Pipeline& build,
                                        std::vector<ColumnType> types,
                                        std::size_t key, const PatchIndex* nuc,
                                        const LogicalNode& join) {
    PIDX_CHECK(types.at(key) == ColumnType::kInt64);
    WallTimer timer;
    obs::NodeStats* stats = Stats(&join);
    const std::size_t workers = Workers(build);
    // A build that fills more than one worker is partitioned for the whole
    // pool, so table assembly and probes spread over every thread; a
    // one-worker build stays one partition, assembled inline.
    std::size_t partitions = 1;
    while (workers > 1 && partitions < pool_.num_threads()) partitions <<= 1;
    PartitionedHashTables out;
    out.mask = partitions - 1;

    std::vector<std::vector<Batch>> spill(workers);
    RunTasks(workers, "join_build", [&](std::size_t w) {
      obs::OpMemory mem("HashJoin build", stats);
      std::vector<Batch>& local = spill[w];
      local.resize(partitions);
      for (Batch& b : local) b.Reset(types);
      // Each batch's rows are bucketed by partition, then gathered.
      std::vector<std::vector<std::size_t>> selection(partitions);
      OperatorPtr op = Instantiate(build, w);
      op->Open();
      Batch in;
      while (op->Next(&in)) {
        mem.Add(ApproxBytes(in));
        if (partitions == 1) {
          local[0].AppendRows(in, 0, in.num_rows());
          continue;
        }
        for (std::vector<std::size_t>& sel : selection) sel.clear();
        const auto& keys = in.columns[key].i64;
        for (std::size_t i = 0; i < in.num_rows(); ++i) {
          selection[JoinKeyPartition(keys[i], out.mask)].push_back(i);
        }
        for (std::size_t p = 0; p < partitions; ++p) {
          local[p].AppendGather(in, selection[p]);
        }
      }
      op->Close();
    });

    auto tables = std::make_shared<std::vector<JoinHashTable>>(partitions);
    RunTasks(partitions, nullptr, [&](std::size_t p) {
      obs::OpMemory mem("HashJoin build", stats);
      JoinHashTable& t = (*tables)[p];
      t.Reset(types);
      std::size_t partition_rows = 0;
      for (const std::vector<Batch>& local : spill) {
        partition_rows += local[p].num_rows();
      }
      t.Reserve(partition_rows);
      for (const std::vector<Batch>& local : spill) {
        const Batch& b = local[p];
        const auto& keys = b.columns[key].i64;
        for (std::size_t i = 0; i < b.num_rows(); ++i) {
          const bool hint = nuc != nullptr && b.row_ids[i] < nuc->NumRows() &&
                            !nuc->IsPatch(b.row_ids[i]);
          t.AddRow(b, i, keys[i], hint);
          if ((i & 1023u) == 1023u) mem.GrowTo(t.ApproxBytes());
        }
      }
      mem.GrowTo(t.ApproxBytes());
    });
    out.parts = std::move(tables);
    out.types = std::move(types);
    if (stats != nullptr) {
      stats->build_ns.fetch_add(
          static_cast<std::uint64_t>(timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
    return out;
  }

  static OpFactory ProbeOp(PartitionedHashTables tables,
                           std::size_t probe_key, bool build_is_left) {
    auto shared =
        std::make_shared<const PartitionedHashTables>(std::move(tables));
    return [shared, probe_key, build_is_left](OperatorPtr op) -> OperatorPtr {
      return std::make_unique<PartitionProbeOperator>(
          std::move(op), shared.get(), probe_key, build_is_left);
    };
  }

  /// Inner equi join: a partitioned parallel build, then a probe fused
  /// into the probe side's pipeline.
  Pipeline LowerJoin(const LogicalNode& join) {
    // Build on the side with the lower estimated cardinality (§3.3) —
    // unless the join's output order matters (a sortedness annotation,
    // which only the probe side's order can carry).
    const bool build_left = SortedOutputColumn(join) >= 0 ||
                            EstimateCardinality(*join.children[0]) <=
                                EstimateCardinality(*join.children[1]);
    const LogicalNode& build = *join.children[build_left ? 0 : 1];
    PartitionedHashTables tables = BuildHashTables(
        Lower(build), LogicalOutputTypes(build),
        build_left ? join.left_key : join.right_key,
        build_left ? join.left_key_nuc : join.right_key_nuc, join);
    Pipeline probe = Lower(*join.children[build_left ? 1 : 0]);
    probe.ops.push_back(ProbeOp(std::move(tables),
                                build_left ? join.right_key : join.left_key,
                                build_left));
    probe.ops.push_back([this, &join](OperatorPtr op) {
      return MaybeProfile(std::move(op), &join);
    });
    if (Workers(probe) > 1) report_->parallel_join = true;
    return probe;
  }

  /// The PatchJoin rewrite (paper §3.3, Figure 2 right) as the union of
  /// two branches every worker drains: the fact side's constraint-
  /// satisfying morsels merge-join the sorted X, and X's morsels probe a
  /// hash table built on the fact patches (the lowest cardinality).
  Pipeline LowerPatchJoin(const LogicalNode& node) {
    const PatchIndex* idx = node.pidx;
    const LogicalNode& fact = *node.children[1];
    // X is executed once, in its sorted order; both branches read it.
    auto x = std::make_shared<const Batch>(
        Run(*node.children[0], /*ordered=*/true));
    const bool no_patches =
        options_.zero_branch_pruning && idx->NumPatches() == 0;

    Pipeline out;
    Pipeline merge = Lower(
        fact, no_patches ? ScanOptions{}
                         : PatchScan(idx, PatchSelectMode::kExcludePatches));
    merge.ops.push_back([x, &node](OperatorPtr op) -> OperatorPtr {
      return std::make_unique<MergeProbeOperator>(std::move(op), x.get(),
                                                  node.left_key,
                                                  node.right_key);
    });
    out.branches.push_back(std::move(merge.branches[0]));
    out.branches[0].ops = std::move(merge.ops);
    if (!no_patches) {
      PartitionedHashTables patches = BuildHashTables(
          Lower(fact, PatchScan(idx, PatchSelectMode::kUsePatches)),
          LogicalOutputTypes(fact), node.right_key, nullptr, node);
      Pipeline hash = BatchPipeline(x);
      out.branches.push_back(std::move(hash.branches[0]));
      out.branches[1].ops.push_back(ProbeOp(std::move(patches), node.left_key,
                                            /*build_is_left=*/false));
    }
    out.ops.push_back([this, &node](OperatorPtr op) {
      return MaybeProfile(std::move(op), &node);
    });
    if (Workers(out) > 1) report_->parallel_join = true;
    return out;
  }

  /// Materializes `p`'s output. One worker claims the morsels in queue
  /// order and drains them straight into one batch. Several workers
  /// interleave morsels: when `ordered` (PatchSort's constraint-satisfying
  /// run, PatchJoin's sorted X) each morsel's output is filed under its
  /// queue position and concatenated in that order; otherwise each worker
  /// drains into its own part.
  Batch Drain(const Pipeline& p, const std::vector<ColumnType>& types,
              const LogicalNode& node, bool ordered) {
    obs::NodeStats* stats = Stats(&node);
    const std::size_t workers = Workers(p);
    const bool per_morsel = ordered && workers > 1;
    PIDX_CHECK(!per_morsel || p.branches.size() == 1);
    std::vector<Batch> parts(
        per_morsel ? p.branches[0].queue->num_morsels() : workers);
    RunTasks(workers, "worker", [&](std::size_t w) {
      obs::OpMemory mem("Materialize", stats);
      if (!per_morsel) {
        parts[w] = DrainColumnwise(*Instantiate(p, w), &mem);
        return;
      }
      MorselSourceOperator* source = nullptr;
      OperatorPtr op = Instantiate(p, w, &source);
      for (op->Open(); source->seq() != MorselSourceOperator::kNone;
           op->Open()) {
        parts[source->seq()] = DrainOpened(*op, &mem);
        op->Close();
      }
      op->Close();
    });
    if (!per_morsel) BiggestFirst(&parts);
    return ConcatParts(std::move(parts), types);
  }

  /// Per-worker partial aggregation over `input`, then a merge
  /// aggregation over the partials (skipped when one worker ran).
  Batch Aggregate(const Pipeline& input, const LogicalNode& node) {
    const std::vector<AggSpec> aggs = node.kind == LogicalNode::Kind::kAggregate
                                          ? node.aggs
                                          : std::vector<AggSpec>{};
    obs::NodeStats* stats = Stats(&node);
    std::vector<Batch> parts = RunPipeline(input, [&](OperatorPtr op) {
      auto agg = std::make_unique<HashAggregateOperator>(
          std::move(op), node.group_cols, aggs);
      agg->SetMemoryStats(stats);
      // Per-worker partial-group counts depend on morsel scheduling; the
      // merged count is stored below instead.
      OperatorPtr root = MaybeProfile(std::move(agg), &node,
                                      /*count_rows=*/false);
      obs::OpMemory mem("HashAggregate", stats);
      return DrainColumnwise(*root, &mem);
    });
    WallTimer merge_timer;
    Batch out = parts.size() == 1
                    ? std::move(parts[0])
                    : MergeAggregateParts(std::move(parts),
                                          LogicalOutputTypes(node),
                                          node.group_cols.size(), aggs);
    if (stats != nullptr) {
      stats->rows.store(out.num_rows(), std::memory_order_relaxed);
      stats->time_ns.fetch_add(
          static_cast<std::uint64_t>(merge_timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
    return out;
  }

  /// Per-worker local sorts of `input` under `sort`'s keys (the TopN
  /// shortcut under a limit): one sorted run per worker.
  std::vector<Batch> SortedRuns(const Pipeline& input,
                                const LogicalNode& sort) {
    obs::NodeStats* stats = Stats(&sort);
    std::vector<Batch> runs = RunPipeline(input, [&](OperatorPtr op) {
      obs::OpMemory mem("Sort", stats);
      Batch run = DrainColumnwise(*op, &mem);
      WallTimer timer;
      SortBatchRows(&run, sort.sort_keys, sort.limit);
      if (stats != nullptr) {
        stats->workers.fetch_add(1, std::memory_order_relaxed);
        stats->AddWorkerTime(static_cast<std::uint64_t>(timer.ElapsedNanos()));
      }
      return run;
    });
    if (runs.size() > 1) report_->parallel_sort = true;
    return runs;
  }

  /// K-way merges sorted runs into `sort`'s result.
  Batch MergeRuns(std::vector<Batch> runs, const LogicalNode& sort) {
    WallTimer timer;
    Batch out = runs.size() == 1 ? std::move(runs[0])
                                 : MergeSortedBatches(std::move(runs),
                                                      sort.sort_keys,
                                                      sort.limit);
    if (obs::NodeStats* stats = Stats(&sort)) {
      stats->rows.store(out.num_rows(), std::memory_order_relaxed);
      stats->time_ns.fetch_add(
          static_cast<std::uint64_t>(timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
    return out;
  }

  /// The PatchDistinct rewrite (paper §3.3 Figure 2 left): the
  /// constraint-satisfying tuples stream through unaggregated (the
  /// constraint guarantees uniqueness); the patches are distinct-
  /// aggregated per worker and merged. For an NCC index the excluded
  /// subtree collapses into the materialized constant.
  Batch PatchDistinct(const LogicalNode& node) {
    const PatchIndex* idx = node.pidx;
    PIDX_CHECK(node.group_cols.size() == 1);
    const LogicalNode& chain = *node.children[0];
    const std::vector<ColumnType> types = LogicalOutputTypes(node);
    const bool zbp = options_.zero_branch_pruning;
    const bool no_patches = zbp && idx->NumPatches() == 0;
    WallTimer total_timer;

    Batch result;
    result.Reset(types);
    std::size_t excluded_workers = 0;
    if (idx->constraint() == ConstraintKind::kNearlyConstant) {
      if (idx->NumRows() > idx->NumPatches() && idx->has_constant()) {
        result.columns[0].i64.push_back(idx->constant_value());
        result.row_ids.push_back(0);
      }
    } else if (!(zbp && idx->NumPatches() == idx->NumRows())) {
      PIDX_CHECK(idx->constraint() == ConstraintKind::kNearlyUnique);
      Pipeline p = Lower(
          chain, no_patches
                     ? ScanOptions{}
                     : PatchScan(idx, PatchSelectMode::kExcludePatches));
      const std::size_t col = node.group_cols[0];
      p.ops.push_back([col](OperatorPtr op) -> OperatorPtr {
        return std::make_unique<ProjectOperator>(
            std::move(op), std::vector<ExprPtr>{Col(col)});
      });
      result = Drain(p, types, node, /*ordered=*/false);
      excluded_workers = Workers(p);
    }
    if (!no_patches) {
      Batch patches = Aggregate(
          Lower(chain, PatchScan(idx, PatchSelectMode::kUsePatches)), node);
      for (std::size_t i = 0; i < patches.num_rows(); ++i) {
        // NCC: a patch modified back to the constant may still hold it.
        if (idx->constraint() == ConstraintKind::kNearlyConstant &&
            patches.columns[0].i64[i] == idx->constant_value()) {
          continue;
        }
        result.AppendRowFrom(patches, i);
      }
    }
    CountBranchWorkers(node, excluded_workers);
    if (obs::NodeStats* stats = Stats(&node)) {
      stats->rows.store(result.num_rows(), std::memory_order_relaxed);
      stats->time_ns.store(
          static_cast<std::uint64_t>(total_timer.ElapsedNanos()),
          std::memory_order_relaxed);
    }
    return result;
  }

  /// The PatchSort rewrite (paper §3.3): the sort is dropped for the
  /// constraint-satisfying rows, which in morsel order already form one
  /// sorted run; only the patches are sorted, per worker, and the k-way
  /// merge restores the global order.
  Batch PatchSort(const LogicalNode& node) {
    const PatchIndex* idx = node.pidx;
    const LogicalNode& chain = *node.children[0];
    const bool zbp = options_.zero_branch_pruning;
    if (zbp && idx->NumPatches() == idx->NumRows()) {
      // e = 1: the excluded branch is empty; sort everything plainly.
      return MergeRuns(SortedRuns(Lower(chain), node), node);
    }
    const bool no_patches = zbp && idx->NumPatches() == 0;
    const Pipeline excluded = Lower(
        chain, no_patches ? ScanOptions{}
                          : PatchScan(idx, PatchSelectMode::kExcludePatches));
    std::vector<Batch> runs;
    runs.push_back(
        Drain(excluded, LogicalOutputTypes(chain), node, /*ordered=*/true));
    if (!no_patches) {
      for (Batch& run : SortedRuns(
               Lower(chain, PatchScan(idx, PatchSelectMode::kUsePatches)),
               node)) {
        runs.push_back(std::move(run));
      }
    }
    CountBranchWorkers(node, Workers(excluded));
    return MergeRuns(std::move(runs), node);
  }

  ThreadPool& pool_;
  const ParallelExecOptions& options_;
  ParallelExecReport* report_;
};

}  // namespace

Batch ExecutePlan(const LogicalNode& plan, ThreadPool& pool,
                  const ParallelExecOptions& options,
                  ParallelExecReport* report) {
  if (options.profile != nullptr) options.profile->RegisterPlan(plan);
  ParallelExecReport local;
  Executor executor(pool, options, report != nullptr ? report : &local);
  return executor.Run(plan);
}

Batch PlanQuery(LogicalPtr plan, const IndexLookup& indexes,
                const OptimizerOptions& options, ThreadPool* pool,
                const ParallelExecOptions& exec) {
  LogicalPtr optimized = OptimizePlan(std::move(plan), indexes, options);
  AnnotateScanPruning(optimized.get());
  return ExecutePlan(*optimized,
                     pool != nullptr ? *pool : ThreadPool::Default(), exec);
}

}  // namespace patchindex
