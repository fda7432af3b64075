#include "optimizer/rewriter.h"

#include <utility>

#include "common/check.h"
#include "exec/hash_join.h"
#include "exec/merge.h"
#include "exec/merge_join.h"
#include "exec/project.h"
#include "exec/reuse.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "obs/profile.h"
#include "obs/profiled_operator.h"
#include "optimizer/scan_pruning.h"

namespace patchindex {

namespace {

/// Finds a registered index of `kind` on the table column that output
/// column `output_col` of the select-chain maps to.
const PatchIndex* FindIndex(const IndexLookup& indexes,
                            const LogicalNode& chain, std::size_t output_col,
                            ConstraintKind kind) {
  const LogicalNode* scan = SelectChainScan(chain);
  // Multi-partition scans have no single table-level index; their indexes
  // are partition-local (used by discovery/maintenance and the
  // per-partition sortedness inference below, not by the single-index
  // patch rewrites).
  if (scan == nullptr || scan->table == nullptr ||
      output_col >= scan->columns.size()) {
    return nullptr;
  }
  const std::size_t table_col = scan->columns[output_col];
  for (const PatchIndex* idx : indexes.FindIndexesOn(*scan->table)) {
    if (idx->constraint() == kind && idx->column() == table_col &&
        idx->patches().NumRows() == scan->table->num_rows()) {
      return idx;
    }
  }
  return nullptr;
}

/// Table-level sortedness proof for one partition: a zero-exception
/// ascending NSC index on `table_col` covering every row.
bool PartitionProvedSorted(const IndexLookup& indexes,
                           const Table& partition, std::size_t table_col) {
  for (const PatchIndex* idx : indexes.FindIndexesOn(partition)) {
    if (idx->constraint() == ConstraintKind::kNearlySorted &&
        idx->ascending() && idx->column() == table_col &&
        idx->NumPatches() == 0 &&
        idx->patches().NumRows() == partition.num_rows()) {
      return true;
    }
  }
  return false;
}

/// Sortedness inference for a multi-partition scan, partition-locally:
/// every partition must carry a zero-exception ascending NSC proof on the
/// column, and the partition boundaries must be non-decreasing (last
/// value of partition p <= first value of partition p+1), because global
/// rowID order concatenates the partitions.
bool PartitionedScanProvedSorted(const IndexLookup& indexes,
                                 const PartitionedTable& table,
                                 std::size_t table_col) {
  bool have_prev = false;
  std::int64_t prev_last = 0;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    const Table& part = table.partition(p);
    if (!part.pdt().empty()) return false;
    if (part.num_rows() == 0) continue;
    if (!PartitionProvedSorted(indexes, part, table_col)) return false;
    const Column& col = part.column(table_col);
    if (have_prev && col.GetInt64(0) < prev_last) return false;
    prev_last = col.GetInt64(part.num_rows() - 1);
    have_prev = true;
  }
  return true;
}

LogicalPtr RewriteNode(LogicalPtr node, const IndexLookup& indexes,
                       const OptimizerOptions& options) {
  for (auto& child : node->children) {
    child = RewriteNode(child, indexes, options);
  }

  switch (node->kind) {
    case LogicalNode::Kind::kScan: {
      // Sortedness inference: a zero-exception ascending NSC index on a
      // scanned column proves the stored order sorted by it — the
      // annotation the kPatchJoin rewrite needs on its non-fact input.
      // Inferred here, not at plan-build time, because it must reflect
      // the table state of *this* execution (the optimizer runs under
      // the session's shared table locks; a cached/prepared plan may be
      // re-run long after updates broke the sort order).
      if (node->scan_sorted_col >= 0) break;
      if (node->table != nullptr) {
        if (!node->table->pdt().empty()) break;
        for (std::size_t i = 0; i < node->columns.size(); ++i) {
          if (PartitionProvedSorted(indexes, *node->table,
                                    node->columns[i])) {
            node->scan_sorted_col = static_cast<int>(i);
            break;
          }
        }
      } else if (node->ptable != nullptr) {
        // Multi-partition: the inference runs partition-locally and lifts
        // to a global claim only when the partition boundaries line up.
        for (std::size_t i = 0; i < node->columns.size(); ++i) {
          if (PartitionedScanProvedSorted(indexes, *node->ptable,
                                          node->columns[i])) {
            node->scan_sorted_col = static_cast<int>(i);
            break;
          }
        }
      }
      break;
    }
    case LogicalNode::Kind::kDistinct: {
      if (node->group_cols.size() != 1) break;
      const PatchIndex* idx =
          FindIndex(indexes, *node->children[0], node->group_cols[0],
                    ConstraintKind::kNearlyUnique);
      if (idx == nullptr &&
          node->children[0]->kind == LogicalNode::Kind::kScan) {
        // NCC variant (the §5.5 extension): distinct = {constant} union
        // the distinct patches. Restricted to plain scans — a selection
        // might filter away every constant row, which the plan could not
        // know statically.
        idx = FindIndex(indexes, *node->children[0], node->group_cols[0],
                        ConstraintKind::kNearlyConstant);
      }
      if (idx == nullptr) break;
      const double n = EstimateCardinality(*node->children[0]);
      if (!options.force_patch_rewrites &&
          !options.cost_model.ShouldRewriteDistinct(n,
                                                    idx->exception_rate())) {
        break;
      }
      node->kind = LogicalNode::Kind::kPatchDistinct;
      node->pidx = idx;
      break;
    }
    case LogicalNode::Kind::kSort: {
      // The Merge combine requires an ascending INT64 order, and has no
      // limit plumbing — a TopN sort stays a plain kSort.
      if (node->sort_keys.size() != 1 || !node->sort_keys[0].ascending ||
          node->limit != 0) {
        break;
      }
      const PatchIndex* idx =
          FindIndex(indexes, *node->children[0], node->sort_keys[0].column,
                    ConstraintKind::kNearlySorted);
      if (idx == nullptr || !idx->ascending()) break;
      const double n = EstimateCardinality(*node->children[0]);
      if (!options.force_patch_rewrites &&
          !options.cost_model.ShouldRewriteSort(n, idx->exception_rate())) {
        break;
      }
      node->kind = LogicalNode::Kind::kPatchSort;
      node->pidx = idx;
      break;
    }
    case LogicalNode::Kind::kJoin: {
      // Pattern (Figure 2 right): right input is the NSC-indexed fact
      // side, left input ("X") is sorted on the join key.
      const PatchIndex* idx = FindIndex(
          indexes, *node->children[1], node->right_key,
          ConstraintKind::kNearlySorted);
      if (idx != nullptr && idx->ascending() &&
          SortedOutputColumn(*node->children[0]) ==
              static_cast<int>(node->left_key)) {
        const double n_fact = EstimateCardinality(*node->children[1]);
        const double n_x = EstimateCardinality(*node->children[0]);
        if (options.force_patch_rewrites ||
            options.cost_model.ShouldRewriteJoin(n_fact, n_x,
                                                 idx->exception_rate())) {
          node->kind = LogicalNode::Kind::kPatchJoin;
          node->pidx = idx;
          break;
        }
      }
      // No structural rewrite: annotate NUC-indexed join keys so the hash
      // joins (serial and morsel-parallel) can treat non-exception build
      // rows as unique and route patches through the exception path.
      node->left_key_nuc = FindIndex(indexes, *node->children[0],
                                     node->left_key,
                                     ConstraintKind::kNearlyUnique);
      node->right_key_nuc = FindIndex(indexes, *node->children[1],
                                      node->right_key,
                                      ConstraintKind::kNearlyUnique);
      break;
    }
    default:
      break;
  }
  return node;
}

OperatorPtr Compile(const LogicalNode& node, const OptimizerOptions& options,
                    obs::ExecProfile* profile);

/// Wraps `op` to record `node`'s rows and wall time when serial-path
/// profiling is on; identity otherwise.
OperatorPtr MaybeProfile(OperatorPtr op, obs::ExecProfile* profile,
                         const LogicalNode& node) {
  if (profile == nullptr) return op;
  return std::make_unique<obs::ProfiledOperator>(std::move(op),
                                                 &profile->StatsFor(&node));
}

/// Scan options for partition `p` of a scan node: restricted to the blocks
/// its pruning kept. A partition pruned down to nothing gets one empty
/// range, because an empty `ranges` list means the whole partition.
ScanOptions PrunedScanOptions(const LogicalNode& scan, std::size_t p) {
  ScanOptions sopt;
  if (scan.pruning != nullptr) {
    sopt.ranges = ScanBaseRanges(scan, p);
    if (sopt.ranges.empty()) sopt.ranges = {{0, 0}};
  }
  return sopt;
}

/// Compiles a select-chain with the PatchIndex selection fused into the
/// scan (the PatchIndex scan of §3.3: the selection modes merge the patch
/// information on-the-fly into the scan's output dataflow).
OperatorPtr CompileChainWithPatchFilter(const LogicalNode& node,
                                        const PatchIndex* idx,
                                        PatchSelectMode mode,
                                        const OptimizerOptions& options,
                                        obs::ExecProfile* profile) {
  if (node.kind == LogicalNode::Kind::kScan) {
    ScanOptions sopt = PrunedScanOptions(node, 0);
    sopt.patch_filter = idx;
    sopt.patch_mode = mode;
    return MaybeProfile(
        std::make_unique<ScanOperator>(*node.table, node.columns, sopt),
        profile, node);
  }
  PIDX_CHECK(node.kind == LogicalNode::Kind::kSelect);
  OperatorPtr child =
      CompileChainWithPatchFilter(*node.children[0], idx, mode, options,
                                  profile);
  return MaybeProfile(
      std::make_unique<SelectOperator>(std::move(child), node.predicate),
      profile, node);
}

OperatorPtr CompileNode(const LogicalNode& node,
                        const OptimizerOptions& options,
                        obs::ExecProfile* profile) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan: {
      if (node.table != nullptr) {
        return std::make_unique<ScanOperator>(*node.table, node.columns,
                                              PrunedScanOptions(node, 0));
      }
      // Multi-partition scan: concatenate the partitions in order, each
      // scan offsetting its rowIDs by the partition's global base so the
      // output rowIDs address the whole table (visible-row numbering —
      // DML row-finding runs with empty PDTs, where visible == base).
      PIDX_CHECK(node.ptable != nullptr);
      std::vector<OperatorPtr> parts;
      std::uint64_t base = 0;
      for (std::size_t p = 0; p < node.ptable->num_partitions(); ++p) {
        const Table& part = node.ptable->partition(p);
        ScanOptions sopt = PrunedScanOptions(node, p);
        sopt.row_id_offset = base;
        parts.push_back(
            std::make_unique<ScanOperator>(part, node.columns, sopt));
        base += part.num_visible_rows();
      }
      if (parts.size() == 1) return std::move(parts[0]);
      return std::make_unique<UnionOperator>(std::move(parts));
    }
    case LogicalNode::Kind::kSelect:
      return std::make_unique<SelectOperator>(
          Compile(*node.children[0], options, profile), node.predicate);
    case LogicalNode::Kind::kProject:
      return std::make_unique<ProjectOperator>(
          Compile(*node.children[0], options, profile), node.exprs);
    case LogicalNode::Kind::kJoin: {
      // Build on the side with the lower estimated cardinality (§3.3);
      // restore the logical left-then-right column order afterwards.
      const double l = EstimateCardinality(*node.children[0]);
      const double r = EstimateCardinality(*node.children[1]);
      const std::size_t lw = LogicalOutputTypes(*node.children[0]).size();
      const std::size_t rw = LogicalOutputTypes(*node.children[1]).size();
      // If this join's output is order-relevant (a sortedness annotation
      // derived from the right/probe side), the probe side must remain
      // the right child regardless of cardinalities — hash joins only
      // preserve the probe side's order.
      const bool build_left = SortedOutputColumn(node) >= 0 || l <= r;
      OperatorPtr build =
          Compile(*node.children[build_left ? 0 : 1], options, profile);
      OperatorPtr probe =
          Compile(*node.children[build_left ? 1 : 0], options, profile);
      HashJoinOptions join_options;
      join_options.build_unique_filter =
          build_left ? node.left_key_nuc : node.right_key_nuc;
      auto join = std::make_unique<HashJoinOperator>(
          std::move(build), std::move(probe),
          build_left ? node.left_key : node.right_key,
          build_left ? node.right_key : node.left_key, join_options);
      if (profile != nullptr) join->SetMemoryStats(&profile->StatsFor(&node));
      // Physical layout: probe columns then build columns.
      std::vector<ExprPtr> reorder;
      if (build_left) {
        for (std::size_t i = 0; i < lw; ++i) reorder.push_back(Col(rw + i));
        for (std::size_t j = 0; j < rw; ++j) reorder.push_back(Col(j));
      } else {
        for (std::size_t i = 0; i < lw; ++i) reorder.push_back(Col(i));
        for (std::size_t j = 0; j < rw; ++j) reorder.push_back(Col(lw + j));
      }
      return std::make_unique<ProjectOperator>(std::move(join),
                                               std::move(reorder));
    }
    case LogicalNode::Kind::kDistinct:
    case LogicalNode::Kind::kAggregate: {
      auto agg = std::make_unique<HashAggregateOperator>(
          Compile(*node.children[0], options, profile), node.group_cols,
          node.kind == LogicalNode::Kind::kAggregate ? node.aggs
                                                     : std::vector<AggSpec>{});
      if (profile != nullptr) agg->SetMemoryStats(&profile->StatsFor(&node));
      return agg;
    }
    case LogicalNode::Kind::kSort: {
      auto sort = std::make_unique<SortOperator>(
          Compile(*node.children[0], options, profile), node.sort_keys,
          node.limit);
      if (profile != nullptr) sort->SetMemoryStats(&profile->StatsFor(&node));
      return sort;
    }

    case LogicalNode::Kind::kPatchDistinct: {
      const LogicalNode& chain = *node.children[0];
      std::vector<ExprPtr> group_proj;
      for (std::size_t c : node.group_cols) group_proj.push_back(Col(c));
      if (node.pidx->constraint() == ConstraintKind::kNearlyConstant) {
        // NCC: all non-patches hold the materialized constant, so the
        // whole excluded subtree collapses into a single-row source. The
        // patches branch is deduplicated against the constant (a patch
        // modified back to the constant may hold it, §5.2-style
        // optimality loss).
        std::vector<OperatorPtr> branches;
        if (node.pidx->NumRows() > node.pidx->NumPatches() &&
            node.pidx->has_constant()) {
          Batch one;
          one.Reset({ColumnType::kInt64});
          one.columns[0].i64.push_back(node.pidx->constant_value());
          one.row_ids.push_back(0);
          branches.push_back(std::make_unique<InMemorySource>(std::move(one)));
        }
        if (!(options.zero_branch_pruning && node.pidx->NumPatches() == 0)) {
          OperatorPtr use = std::make_unique<SelectOperator>(
              std::make_unique<HashAggregateOperator>(
                  CompileChainWithPatchFilter(
                      chain, node.pidx, PatchSelectMode::kUsePatches,
                      options, profile),
                  node.group_cols, std::vector<AggSpec>{}),
              Ne(Col(0), ConstInt(node.pidx->constant_value())));
          branches.push_back(std::move(use));
        }
        if (branches.empty()) {  // empty table
          Batch none;
          none.Reset({ColumnType::kInt64});
          return std::make_unique<InMemorySource>(std::move(none));
        }
        if (branches.size() == 1) return std::move(branches[0]);
        return std::make_unique<UnionOperator>(std::move(branches));
      }
      if (options.zero_branch_pruning && node.pidx->NumPatches() == 0) {
        // ZBP (§6.3): the patches subtree has cardinality 0 and the
        // exclude selection passes everything — both are dropped.
        return std::make_unique<ProjectOperator>(
            Compile(chain, options, profile), std::move(group_proj));
      }
      if (options.zero_branch_pruning &&
          node.pidx->NumPatches() == node.pidx->NumRows()) {
        // Degenerate mirror case (e = 1): the excluded subtree is the one
        // with guaranteed-zero cardinality — ZBP drops it and the plan
        // collapses to the plain aggregation over the patches.
        return std::make_unique<HashAggregateOperator>(
            CompileChainWithPatchFilter(chain, node.pidx,
                                        PatchSelectMode::kUsePatches,
                                        options, profile),
            node.group_cols, std::vector<AggSpec>{});
      }
      // Figure 2 left: the aggregation is dropped from the subtree that
      // excluded the patches (tuples there are unique by the constraint).
      OperatorPtr excl = std::make_unique<ProjectOperator>(
          CompileChainWithPatchFilter(chain, node.pidx,
                                      PatchSelectMode::kExcludePatches,
                                      options, profile),
          group_proj);
      OperatorPtr use = std::make_unique<HashAggregateOperator>(
          CompileChainWithPatchFilter(chain, node.pidx,
                                      PatchSelectMode::kUsePatches, options,
                                      profile),
          node.group_cols, std::vector<AggSpec>{});
      std::vector<OperatorPtr> branches;
      branches.push_back(std::move(excl));
      branches.push_back(std::move(use));
      return std::make_unique<UnionOperator>(std::move(branches));
    }

    case LogicalNode::Kind::kPatchSort: {
      const LogicalNode& chain = *node.children[0];
      if (options.zero_branch_pruning && node.pidx->NumPatches() == 0) {
        return Compile(chain, options, profile);  // stored order already sorted
      }
      if (options.zero_branch_pruning &&
          node.pidx->NumPatches() == node.pidx->NumRows()) {
        // e = 1: the excluded branch is empty; sort everything plainly.
        return std::make_unique<SortOperator>(
            CompileChainWithPatchFilter(chain, node.pidx,
                                        PatchSelectMode::kUsePatches,
                                        options, profile),
            node.sort_keys);
      }
      // The sort operator becomes obsolete for the non-patches; only the
      // patches are sorted, and a Merge preserves the global order.
      OperatorPtr excl = CompileChainWithPatchFilter(
          chain, node.pidx, PatchSelectMode::kExcludePatches, options, profile);
      OperatorPtr use = std::make_unique<SortOperator>(
          CompileChainWithPatchFilter(chain, node.pidx,
                                      PatchSelectMode::kUsePatches, options,
                                      profile),
          node.sort_keys);
      std::vector<OperatorPtr> branches;
      branches.push_back(std::move(excl));
      branches.push_back(std::move(use));
      return std::make_unique<MergeOperator>(std::move(branches),
                                             node.sort_keys[0].column);
    }

    case LogicalNode::Kind::kPatchJoin: {
      const LogicalNode& x = *node.children[0];
      const LogicalNode& fact = *node.children[1];
      if (options.zero_branch_pruning && node.pidx->NumPatches() == 0) {
        return std::make_unique<MergeJoinOperator>(
            Compile(x, options, profile), Compile(fact, options, profile),
            node.left_key, node.right_key);
      }
      // Figure 2 right: X is buffered (ReuseCache) and consumed by both
      // cloned subtrees; the non-patches side uses the MergeJoin, the
      // patches side a HashJoin built on the patches (lowest cardinality).
      OperatorPtr x_first;
      OperatorPtr x_second;
      if (options.buffer_shared_subtrees) {
        auto buffer = MakeReuseBuffer();
        x_first = std::make_unique<ReuseCacheOperator>(
            Compile(x, options, profile), buffer);
        x_second = std::make_unique<ReuseLoadOperator>(buffer,
                                                       LogicalOutputTypes(x));
      } else {
        // Ablation: compute X twice.
        x_first = Compile(x, options, profile);
        x_second = Compile(x, options, profile);
      }
      OperatorPtr merge_branch = std::make_unique<MergeJoinOperator>(
          std::move(x_first),
          CompileChainWithPatchFilter(fact, node.pidx,
                                      PatchSelectMode::kExcludePatches,
                                      options, profile),
          node.left_key, node.right_key);
      // Probe = replayed X, build = patches; output is X-then-fact, the
      // same layout the MergeJoin produces.
      OperatorPtr hash_branch = std::make_unique<HashJoinOperator>(
          CompileChainWithPatchFilter(fact, node.pidx,
                                      PatchSelectMode::kUsePatches, options,
                                      profile),
          std::move(x_second), node.right_key, node.left_key);
      std::vector<OperatorPtr> branches;
      branches.push_back(std::move(merge_branch));
      branches.push_back(std::move(hash_branch));
      return std::make_unique<UnionOperator>(std::move(branches));
    }
  }
  PIDX_CHECK_MSG(false, "unreachable plan node");
  return nullptr;
}

OperatorPtr Compile(const LogicalNode& node, const OptimizerOptions& options,
                    obs::ExecProfile* profile) {
  return MaybeProfile(CompileNode(node, options, profile), profile, node);
}

}  // namespace

LogicalPtr OptimizePlan(LogicalPtr plan, const IndexLookup& indexes,
                        const OptimizerOptions& options) {
  if (!options.enable_patch_rewrites) return plan;
  return RewriteNode(std::move(plan), indexes, options);
}

OperatorPtr CompilePlan(const LogicalPtr& plan,
                        const OptimizerOptions& options,
                        obs::ExecProfile* profile) {
  return Compile(*plan, options, profile);
}

OperatorPtr PlanQuery(LogicalPtr plan, const IndexLookup& indexes,
                      const OptimizerOptions& options) {
  LogicalPtr optimized = OptimizePlan(std::move(plan), indexes, options);
  AnnotateScanPruning(optimized.get());
  return CompilePlan(optimized, options);
}

}  // namespace patchindex
