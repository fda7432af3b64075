#include "optimizer/scan_pruning.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace patchindex {

namespace {

/// The closed value interval [lo, hi] a column's conjuncts allow; empty
/// when lo > hi.
struct Interval {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/// Narrows `iv` to the values v with `v op value`.
void Narrow(Interval* iv, Expr::CmpOp op, std::int64_t value) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  switch (op) {
    case Expr::CmpOp::kEq:
      iv->lo = std::max(iv->lo, value);
      iv->hi = std::min(iv->hi, value);
      break;
    case Expr::CmpOp::kLt:
      if (value == kMin) {
        *iv = {kMax, kMin};
      } else {
        iv->hi = std::min(iv->hi, value - 1);
      }
      break;
    case Expr::CmpOp::kLe:
      iv->hi = std::min(iv->hi, value);
      break;
    case Expr::CmpOp::kGt:
      if (value == kMax) {
        *iv = {kMax, kMin};
      } else {
        iv->lo = std::max(iv->lo, value + 1);
      }
      break;
    case Expr::CmpOp::kGe:
      iv->lo = std::max(iv->lo, value);
      break;
    case Expr::CmpOp::kNe:
      break;
  }
}

/// Rows present in both sorted, disjoint range lists.
std::vector<RowRange> Intersect(const std::vector<RowRange>& a,
                                const std::vector<RowRange>& b) {
  std::vector<RowRange> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const RowId begin = std::max(a[i].begin, b[j].begin);
    const RowId end = std::min(a[i].end, b[j].end);
    if (begin < end) out.push_back({begin, end});
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

void AnnotateScan(LogicalNode* scan,
                  const std::vector<const Expr*>& predicates) {
  scan->pruning = nullptr;
  std::vector<ColumnBound> conjuncts;
  for (const Expr* predicate : predicates) {
    CollectColumnBounds(*predicate, &conjuncts);
  }
  const Schema& schema = ScanSchema(*scan);
  std::map<std::size_t, Interval> bounds;  // table column -> allowed values
  for (const ColumnBound& b : conjuncts) {
    if (b.column >= scan->columns.size()) continue;
    const std::size_t col = scan->columns[b.column];
    if (schema.field(col).type != ColumnType::kInt64) continue;
    Narrow(&bounds[col], b.op, b.value);
  }
  if (bounds.empty()) return;

  auto pruning = std::make_shared<ScanPruning>();
  for (const Table* part : ScanPartitions(*scan)) {
    // Every column of a partition has the same block boundaries, so any
    // bound column's summary counts the blocks.
    std::shared_ptr<const MinMaxIndex> geometry;
    std::vector<RowRange> kept = {{0, part->num_rows()}};
    for (const auto& [col, allowed] : bounds) {
      const std::shared_ptr<const MinMaxIndex> summary =
          part->column(col).BlockSummary();
      if (geometry == nullptr) geometry = summary;
      if (allowed.lo > allowed.hi) {
        kept.clear();
        break;
      }
      kept = Intersect(kept, summary->PruneRanges(allowed.lo, allowed.hi));
    }
    pruning->total_blocks += geometry->num_blocks();
    for (const RowRange& r : kept) {
      pruning->kept_blocks += geometry->BlocksOverlapping(r);
    }
    pruning->ranges.push_back(std::move(kept));
  }
  if (pruning->kept_blocks < pruning->total_blocks) {
    scan->pruning = std::move(pruning);
  }
}

}  // namespace

void AnnotateScanPruning(LogicalNode* plan) {
  std::vector<const Expr*> predicates;
  LogicalNode* cur = plan;
  while (cur->kind == LogicalNode::Kind::kSelect) {
    predicates.push_back(cur->predicate.get());
    cur = cur->children[0].get();
  }
  if (cur->kind == LogicalNode::Kind::kScan) {
    AnnotateScan(cur, predicates);
    return;
  }
  for (const LogicalPtr& child : cur->children) {
    AnnotateScanPruning(child.get());
  }
}

}  // namespace patchindex
