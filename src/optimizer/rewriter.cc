#include "optimizer/rewriter.h"

#include <utility>

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
      // The sorted-run merge needs an ascending INT64 order, and the
      // rewrite has no limit plumbing — a TopN sort stays a plain kSort.
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
      // join build can treat non-exception rows as unique and route
      // patches through the exception path.
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

}  // namespace

LogicalPtr OptimizePlan(LogicalPtr plan, const IndexLookup& indexes,
                        const OptimizerOptions& options) {
  if (!options.enable_patch_rewrites) return plan;
  return RewriteNode(std::move(plan), indexes, options);
}

}  // namespace patchindex
