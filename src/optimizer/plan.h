#ifndef PATCHINDEX_OPTIMIZER_PLAN_H_
#define PATCHINDEX_OPTIMIZER_PLAN_H_

#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/sort.h"
#include "patchindex/patch_index.h"
#include "storage/minmax.h"
#include "storage/table.h"

namespace patchindex {

/// Block pruning of one scan (AnnotateScanPruning): per partition, in
/// ScanPartitions order, the base-row ranges whose min/max blocks can hold
/// rows satisfying the selections above the scan. A partition's list may
/// be empty — no base row can qualify.
struct ScanPruning {
  std::vector<std::vector<RowRange>> ranges;
  std::uint64_t kept_blocks = 0;
  std::uint64_t total_blocks = 0;
};

/// Logical query plan node. Built by query frontends (the TPC-H query
/// builders, the microbenchmark harness, user code), transformed by the
/// PatchIndex rewriter, executed by the morsel-driven executor
/// (engine/executor.h).
struct LogicalNode {
  enum class Kind {
    kScan,
    kSelect,
    kProject,
    kJoin,      // inner equi join; children[0] joined with children[1]
    kDistinct,  // duplicate elimination on group_cols
    kAggregate, // grouping aggregation
    kSort,
    // Nodes introduced by the PatchIndex rewriter (paper §3.3 Figure 2):
    kPatchDistinct,  // distinct over a NUC: aggregation dropped for non-patches
    kPatchSort,      // sort over a NSC: sort dropped for non-patches, merge
    kPatchJoin,      // join on a NSC: MergeJoin for non-patches
  };

  Kind kind;
  std::vector<std::shared_ptr<LogicalNode>> children;

  // kScan. Exactly one of `table` / a multi-partition `ptable` drives the
  // scan: for a single-partition PartitionedTable both are set (table
  // points at partition 0, so every single-table code path — patch
  // rewrites included — applies unchanged); for a multi-partition table
  // `table` stays null and the scan draws from every partition, emitting
  // table-global rowIDs (ScanOptions::row_id_offset).
  const Table* table = nullptr;
  const PartitionedTable* ptable = nullptr;
  std::vector<std::size_t> columns;
  /// Index (into `columns`) of a column the stored table order is sorted
  /// by, or -1. Seeds the sortedness propagation the join rewrite needs.
  int scan_sorted_col = -1;
  /// kScan: obs::SystemTableId when this scan reads a pi_stats virtual
  /// table, -1 otherwise. The binder sets it (the scan then points at the
  /// empty placeholder table); Session execution replaces the pointer
  /// with a per-query materialized table before running the plan.
  /// Survives ClonePlan via the node copy constructor.
  int system_table = -1;
  /// kScan: the blocks this execution visits; null means every block.
  /// Recomputed for each execution after optimization, because it
  /// depends on the table state and the parameter values of that run.
  std::shared_ptr<const ScanPruning> pruning;

  // kSelect
  ExprPtr predicate;
  /// Estimated selectivity of the predicate (for the cost model).
  double selectivity = 0.5;

  // kProject
  std::vector<ExprPtr> exprs;

  // kJoin: key columns in the respective child's output.
  std::size_t left_key = 0;
  std::size_t right_key = 0;

  /// kJoin advisory annotations (set by the rewriter; no semantic
  /// change): a NUC index proving the respective join key nearly unique.
  /// The hash join build uses it to skip duplicate chaining for
  /// non-exception build rows and route the patches through the exception
  /// path; results are exact with or without it.
  const PatchIndex* left_key_nuc = nullptr;
  const PatchIndex* right_key_nuc = nullptr;

  // kDistinct / kAggregate
  std::vector<std::size_t> group_cols;
  std::vector<AggSpec> aggs;

  // kSort
  std::vector<SortKeySpec> sort_keys;
  /// kSort: emit only the top `limit` rows in sort order when non-zero
  /// (ORDER BY ... LIMIT); 0 means a full sort.
  std::size_t limit = 0;

  // kPatch*: the index backing the rewrite. For kPatchJoin the indexed
  // ("fact") input is children[1]; children[0] is the sorted subtree "X".
  const PatchIndex* pidx = nullptr;
};

using LogicalPtr = std::shared_ptr<LogicalNode>;

LogicalPtr LScan(const Table& table, std::vector<std::size_t> columns,
                 int sorted_col = -1);
/// Scan of a partitioned table. Single-partition tables also populate
/// `table` (see LogicalNode) and behave exactly like a plain scan.
LogicalPtr LScan(const PartitionedTable& table,
                 std::vector<std::size_t> columns, int sorted_col = -1);

/// The schema behind a scan node, whichever representation backs it.
const Schema& ScanSchema(const LogicalNode& scan);
/// Base rows behind a scan node, across partitions.
std::uint64_t ScanRows(const LogicalNode& scan);
/// The tables a scan node reads, in rowID order: the plain table, or
/// every partition of a multi-partition table.
std::vector<const Table*> ScanPartitions(const LogicalNode& scan);
/// Base-row ranges of ScanPartitions(scan)[p] the scan visits: the whole
/// partition, or only the blocks its pruning kept (possibly none).
std::vector<RowRange> ScanBaseRanges(const LogicalNode& scan, std::size_t p);
LogicalPtr LSelect(LogicalPtr child, ExprPtr predicate,
                   double selectivity = 0.5);
LogicalPtr LProject(LogicalPtr child, std::vector<ExprPtr> exprs);
LogicalPtr LJoin(LogicalPtr left, LogicalPtr right, std::size_t left_key,
                 std::size_t right_key);
LogicalPtr LDistinct(LogicalPtr child, std::vector<std::size_t> cols);
LogicalPtr LAggregate(LogicalPtr child, std::vector<std::size_t> group_cols,
                      std::vector<AggSpec> aggs);
LogicalPtr LSort(LogicalPtr child, std::vector<SortKeySpec> keys,
                 std::size_t limit = 0);

/// Deep copy of a plan tree's nodes. The PatchIndex rewriter transforms
/// plans in place, so a caller that keeps a bound plan for repeated
/// execution (prepared statements) hands out a clone per run. Node
/// payloads that are not themselves plan structure — tables, expressions,
/// index pointers — stay shared.
LogicalPtr ClonePlan(const LogicalPtr& plan);

/// Output column types of a logical node.
std::vector<ColumnType> LogicalOutputTypes(const LogicalNode& node);

/// Descends through a chain of selections (which keep columns and rowIDs
/// intact) to the scan feeding it; nullptr when the subtree has any other
/// shape. This is the paper's "arbitrary subtree X without joins or
/// aggregations" restricted to the common select-chain case, the shape
/// the PatchIndex rewrites match.
const LogicalNode* SelectChainScan(const LogicalNode& node);

/// Index of the output column the node's output is sorted by (ascending),
/// or -1. Propagation rules follow the paper §3.3: selections preserve
/// order, hash joins preserve the probe side's order, projections remap.
int SortedOutputColumn(const LogicalNode& node);

/// Estimated output cardinality (for the cost model).
double EstimateCardinality(const LogicalNode& node);

}  // namespace patchindex

#endif  // PATCHINDEX_OPTIMIZER_PLAN_H_
