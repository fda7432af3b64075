#include "baselines/sort_key.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "exec/scan.h"
#include "exec/sort.h"

namespace patchindex {

SortKey::SortKey(Table* table, std::size_t column, bool ascending)
    : table_(table), column_(column), ascending_(ascending) {
  PIDX_CHECK(table_ != nullptr);
  PIDX_CHECK(table_->schema().field(column).type == ColumnType::kInt64);
  Materialize();
}

void SortKey::Materialize() {
  PIDX_CHECK_MSG(table_->pdt().empty(),
                 "materialize after checkpointing the table");
  const auto& keys = table_->column(column_).i64_data();
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending_ ? keys[a] < keys[b] : keys[a] > keys[b];
                   });
  // Physically rewrite every column in the new order.
  for (std::size_t c = 0; c < table_->schema().num_fields(); ++c) {
    Column& col = table_->column(c);
    Column sorted(col.type());
    for (std::size_t i : order) sorted.Append(col.Get(i));
    col = std::move(sorted);
  }
}

void SortKey::MaintainAfterUpdate() {
  table_->Checkpoint();
  Materialize();
}

OperatorPtr SortKey::QueryPlan() const {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < table_->schema().num_fields(); ++c) {
    cols.push_back(c);
  }
  // The engine still sorts to guarantee the order (paper §6.2: "the query
  // still performs a sort operator to ensure the sorting").
  return std::make_unique<SortOperator>(
      std::make_unique<ScanOperator>(*table_, cols),
      std::vector<SortKeySpec>{{column_, ascending_}});
}

OperatorPtr SortKey::ScanPlan() const {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < table_->schema().num_fields(); ++c) {
    cols.push_back(c);
  }
  return std::make_unique<ScanOperator>(*table_, cols);
}

}  // namespace patchindex
