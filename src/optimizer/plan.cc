#include "optimizer/plan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace patchindex {

LogicalPtr LScan(const Table& table, std::vector<std::size_t> columns,
                 int sorted_col) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kScan;
  n->table = &table;
  n->columns = std::move(columns);
  n->scan_sorted_col = sorted_col;
  return n;
}

LogicalPtr LScan(const PartitionedTable& table,
                 std::vector<std::size_t> columns, int sorted_col) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kScan;
  n->ptable = &table;
  // Single partition: also expose the plain-table view so the whole
  // single-table machinery (patch rewrites, NUC annotations) applies
  // unchanged.
  if (table.num_partitions() == 1) n->table = &table.partition(0);
  n->columns = std::move(columns);
  n->scan_sorted_col = sorted_col;
  return n;
}

const Schema& ScanSchema(const LogicalNode& scan) {
  PIDX_CHECK(scan.kind == LogicalNode::Kind::kScan);
  if (scan.table != nullptr) return scan.table->schema();
  PIDX_CHECK(scan.ptable != nullptr);
  return scan.ptable->schema();
}

std::uint64_t ScanRows(const LogicalNode& scan) {
  PIDX_CHECK(scan.kind == LogicalNode::Kind::kScan);
  if (scan.ptable != nullptr) return scan.ptable->num_rows();
  PIDX_CHECK(scan.table != nullptr);
  return scan.table->num_rows();
}

std::vector<const Table*> ScanPartitions(const LogicalNode& scan) {
  PIDX_CHECK(scan.kind == LogicalNode::Kind::kScan);
  if (scan.table != nullptr) return {scan.table};
  PIDX_CHECK(scan.ptable != nullptr);
  std::vector<const Table*> parts;
  for (std::size_t p = 0; p < scan.ptable->num_partitions(); ++p) {
    parts.push_back(&scan.ptable->partition(p));
  }
  return parts;
}

std::vector<RowRange> ScanBaseRanges(const LogicalNode& scan, std::size_t p) {
  if (scan.pruning != nullptr) return scan.pruning->ranges[p];
  const Table& part = scan.table != nullptr ? *scan.table
                                            : scan.ptable->partition(p);
  return {{0, part.num_rows()}};
}

LogicalPtr LSelect(LogicalPtr child, ExprPtr predicate, double selectivity) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kSelect;
  n->children = {std::move(child)};
  n->predicate = std::move(predicate);
  n->selectivity = selectivity;
  return n;
}

LogicalPtr LProject(LogicalPtr child, std::vector<ExprPtr> exprs) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kProject;
  n->children = {std::move(child)};
  n->exprs = std::move(exprs);
  return n;
}

LogicalPtr LJoin(LogicalPtr left, LogicalPtr right, std::size_t left_key,
                 std::size_t right_key) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kJoin;
  n->children = {std::move(left), std::move(right)};
  n->left_key = left_key;
  n->right_key = right_key;
  return n;
}

LogicalPtr LDistinct(LogicalPtr child, std::vector<std::size_t> cols) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kDistinct;
  n->children = {std::move(child)};
  n->group_cols = std::move(cols);
  return n;
}

LogicalPtr LAggregate(LogicalPtr child, std::vector<std::size_t> group_cols,
                      std::vector<AggSpec> aggs) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kAggregate;
  n->children = {std::move(child)};
  n->group_cols = std::move(group_cols);
  n->aggs = std::move(aggs);
  return n;
}

LogicalPtr LSort(LogicalPtr child, std::vector<SortKeySpec> keys,
                 std::size_t limit) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = LogicalNode::Kind::kSort;
  n->children = {std::move(child)};
  n->sort_keys = std::move(keys);
  n->limit = limit;
  return n;
}

LogicalPtr ClonePlan(const LogicalPtr& plan) {
  if (plan == nullptr) return nullptr;
  auto n = std::make_shared<LogicalNode>(*plan);  // copies all payload fields
  for (auto& child : n->children) child = ClonePlan(child);
  return n;
}

std::vector<ColumnType> LogicalOutputTypes(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan: {
      std::vector<ColumnType> out;
      const Schema& schema = ScanSchema(node);
      for (std::size_t c : node.columns) {
        out.push_back(schema.field(c).type);
      }
      return out;
    }
    case LogicalNode::Kind::kSelect:
      return LogicalOutputTypes(*node.children[0]);
    case LogicalNode::Kind::kProject: {
      const auto input = LogicalOutputTypes(*node.children[0]);
      std::vector<ColumnType> out;
      for (const ExprPtr& e : node.exprs) out.push_back(e->OutputType(input));
      return out;
    }
    case LogicalNode::Kind::kJoin:
    case LogicalNode::Kind::kPatchJoin: {
      auto out = LogicalOutputTypes(*node.children[0]);
      for (ColumnType t : LogicalOutputTypes(*node.children[1])) {
        out.push_back(t);
      }
      return out;
    }
    case LogicalNode::Kind::kDistinct:
    case LogicalNode::Kind::kPatchDistinct:
    case LogicalNode::Kind::kAggregate: {
      const auto input = LogicalOutputTypes(*node.children[0]);
      std::vector<ColumnType> out;
      for (std::size_t c : node.group_cols) out.push_back(input[c]);
      for (const AggSpec& a : node.aggs) {
        out.push_back(a.op == AggOp::kCount ? ColumnType::kInt64
                                            : input[a.column]);
      }
      return out;
    }
    case LogicalNode::Kind::kSort:
    case LogicalNode::Kind::kPatchSort:
      return LogicalOutputTypes(*node.children[0]);
  }
  return {};
}

int SortedOutputColumn(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan:
      return node.scan_sorted_col;
    case LogicalNode::Kind::kSelect:
      return SortedOutputColumn(*node.children[0]);
    case LogicalNode::Kind::kProject: {
      const int child_sorted = SortedOutputColumn(*node.children[0]);
      if (child_sorted < 0) return -1;
      for (std::size_t i = 0; i < node.exprs.size(); ++i) {
        if (node.exprs[i]->column_index() == child_sorted) {
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    case LogicalNode::Kind::kJoin: {
      // A hash join preserves the probe (right) side's order.
      const int right_sorted = SortedOutputColumn(*node.children[1]);
      if (right_sorted < 0) return -1;
      const std::size_t left_width =
          LogicalOutputTypes(*node.children[0]).size();
      return static_cast<int>(left_width) + right_sorted;
    }
    case LogicalNode::Kind::kSort:
      if (node.sort_keys.size() == 1 && node.sort_keys[0].ascending) {
        return static_cast<int>(node.sort_keys[0].column);
      }
      return -1;
    case LogicalNode::Kind::kPatchSort:
      return SortedOutputColumn(*node.children[0]);
    default:
      return -1;
  }
}

namespace {
// Rows of the base table(s) feeding `node`, before any selections.
double BaseTableRows(const LogicalNode& node) {
  if (node.kind == LogicalNode::Kind::kScan) {
    return static_cast<double>(ScanRows(node));
  }
  double total = 0;
  for (const auto& c : node.children) total = std::max(total, BaseTableRows(*c));
  return std::max(total, 1.0);
}
}  // namespace

double EstimateCardinality(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalNode::Kind::kScan:
      return static_cast<double>(ScanRows(node));
    case LogicalNode::Kind::kSelect:
      return node.selectivity * EstimateCardinality(*node.children[0]);
    case LogicalNode::Kind::kProject:
    case LogicalNode::Kind::kPatchSort:
      return EstimateCardinality(*node.children[0]);
    case LogicalNode::Kind::kSort: {
      const double n = EstimateCardinality(*node.children[0]);
      return node.limit > 0 ? std::min<double>(n, static_cast<double>(node.limit))
                            : n;
    }
    case LogicalNode::Kind::kJoin:
    case LogicalNode::Kind::kPatchJoin: {
      // Foreign-key join heuristic: the fact (larger) side scaled by the
      // dimension (smaller) side's selectivity against its base table.
      const double l = EstimateCardinality(*node.children[0]);
      const double r = EstimateCardinality(*node.children[1]);
      const LogicalNode& smaller = l <= r ? *node.children[0]
                                          : *node.children[1];
      const double dim_selectivity =
          std::min(1.0, std::min(l, r) / BaseTableRows(smaller));
      return std::max(l, r) * dim_selectivity;
    }
    case LogicalNode::Kind::kDistinct:
    case LogicalNode::Kind::kPatchDistinct:
    case LogicalNode::Kind::kAggregate:
      return 0.1 * EstimateCardinality(*node.children[0]);
  }
  return 0;
}

const LogicalNode* SelectChainScan(const LogicalNode& node) {
  const LogicalNode* cur = &node;
  while (cur->kind == LogicalNode::Kind::kSelect) cur = cur->children[0].get();
  return cur->kind == LogicalNode::Kind::kScan ? cur : nullptr;
}

}  // namespace patchindex
