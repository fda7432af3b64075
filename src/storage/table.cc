#include "storage/table.h"

#include <algorithm>

#include "common/check.h"

namespace patchindex {

int Schema::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.push_back(std::make_shared<Column>(f.type));
  }
}

const Column* Table::ColumnByName(const std::string& name) const {
  const int idx = schema_.ColumnIndex(name);
  return idx < 0 ? nullptr : columns_[static_cast<std::size_t>(idx)].get();
}

void Table::EnsureUnshared(std::size_t i) {
  // use_count() > 1 means a published snapshot still references the
  // buffer. Publish copies column pointers only under the same writer
  // lock mutation requires, so the count cannot concurrently grow here.
  if (columns_[i].use_count() > 1) {
    columns_[i] = std::make_shared<Column>(*columns_[i]);
  }
}

void Table::AppendRow(const Row& row) {
  PIDX_CHECK(row.cells.size() == columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    EnsureUnshared(i);
    columns_[i]->Append(row.cells[i]);
  }
  BumpMutationSeq();
}

Status Table::BufferDelete(RowId row) {
  if (row >= num_rows()) {
    return Status::OutOfRange("delete position beyond base table");
  }
  pdt_.AddDelete(row);
  BumpMutationSeq();
  return Status::OK();
}

Status Table::BufferModify(RowId row, std::size_t col, Value v) {
  if (row >= num_rows()) {
    return Status::OutOfRange("modify position beyond base table");
  }
  if (col >= columns_.size()) {
    return Status::InvalidArgument("modify column out of range");
  }
  if (v.type() != columns_[col]->type()) {
    return Status::InvalidArgument("modify value type mismatch");
  }
  pdt_.AddModify(row, col, std::move(v));
  BumpMutationSeq();
  return Status::OK();
}

void Table::Checkpoint() {
  for (const auto& [row, cols] : pdt_.modifies()) {
    for (const auto& [col, value] : cols) {
      EnsureUnshared(col);
      columns_[col]->Set(row, value);
    }
  }
  if (!pdt_.deletes().empty()) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      EnsureUnshared(i);
      columns_[i]->DeleteRows(pdt_.deletes());
    }
  }
  for (const Row& row : pdt_.inserts()) AppendRow(row);
  pdt_.Clear();
  BumpMutationSeq();
}

std::unique_ptr<Table> Table::CloneShared() const {
  auto clone = std::make_unique<Table>(schema_);
  clone->columns_ = columns_;  // shared buffers; COW isolates future writes
  clone->pdt_ = pdt_;
  clone->mutation_seq_.store(mutation_seq(), std::memory_order_relaxed);
  return clone;
}

Value Table::VisibleCell(RowId row, std::size_t col) const {
  // Visible row order: surviving base rows (deltas applied) then inserts.
  const std::uint64_t surviving = num_rows() - pdt_.deletes().size();
  if (row >= surviving) {
    return pdt_.inserts()[row - surviving].cells[col];
  }
  // Map visible position -> base position by skipping deleted rows.
  RowId base = row;
  for (RowId del : pdt_.deletes()) {
    if (del <= base) {
      ++base;
    } else {
      break;
    }
  }
  auto mit = pdt_.modifies().find(base);
  if (mit != pdt_.modifies().end()) {
    auto cit = mit->second.find(col);
    if (cit != mit->second.end()) return cit->second;
  }
  return columns_[col]->Get(base);
}

std::uint64_t Table::MemoryUsageBytes() const {
  std::uint64_t total = 0;
  for (const auto& c : columns_) total += c->MemoryUsageBytes();
  return total;
}

PartitionedTable::PartitionedTable(Schema schema, std::size_t num_partitions)
    : schema_(schema) {
  PIDX_CHECK(num_partitions >= 1);
  partitions_.reserve(num_partitions);
  for (std::size_t i = 0; i < num_partitions; ++i) {
    partitions_.push_back(std::make_shared<Table>(schema));
  }
}

PartitionedTable::PartitionedTable(Schema schema,
                                   std::vector<std::unique_ptr<Table>> parts)
    : schema_(std::move(schema)) {
  partitions_.reserve(parts.size());
  for (auto& p : parts) partitions_.emplace_back(std::move(p));
  PIDX_CHECK(!partitions_.empty());
  for (const auto& p : partitions_) {
    PIDX_CHECK(p != nullptr);
    PIDX_CHECK(p->schema().num_fields() == schema_.num_fields());
  }
}

PartitionedTable::PartitionedTable(Schema schema,
                                   std::vector<std::shared_ptr<Table>> parts)
    : schema_(std::move(schema)), partitions_(std::move(parts)) {
  PIDX_CHECK(!partitions_.empty());
  for (const auto& p : partitions_) {
    PIDX_CHECK(p != nullptr);
    PIDX_CHECK(p->schema().num_fields() == schema_.num_fields());
  }
}

std::uint64_t PartitionedTable::num_rows() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->num_rows();
  return total;
}

std::uint64_t PartitionedTable::num_visible_rows() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->num_visible_rows();
  return total;
}

std::uint64_t PartitionedTable::partition_base(std::size_t i) const {
  PIDX_CHECK(i < partitions_.size());
  std::uint64_t base = 0;
  for (std::size_t p = 0; p < i; ++p) base += partitions_[p]->num_rows();
  return base;
}

PartitionedTable::RowLocation PartitionedTable::ResolveRow(
    RowId global_row) const {
  RowId local = global_row;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const std::uint64_t n = partitions_[p]->num_rows();
    if (local < n) return {p, local};
    local -= n;
  }
  PIDX_CHECK_MSG(false, "global rowID beyond the partitioned table");
  return {0, 0};
}

std::size_t PartitionedTable::LeastLoadedPartition(
    bool count_pending_inserts) const {
  std::size_t best = 0;
  std::uint64_t best_rows = ~std::uint64_t{0};
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    std::uint64_t rows = partitions_[p]->num_rows();
    if (count_pending_inserts) rows += partitions_[p]->pdt().inserts().size();
    if (rows < best_rows) {
      best = p;
      best_rows = rows;
    }
  }
  return best;
}

void PartitionedTable::AppendRow(const Row& row) {
  partitions_[LeastLoadedPartition(/*count_pending_inserts=*/false)]
      ->AppendRow(row);
}

void PartitionedTable::BufferInsert(Row row) {
  partitions_[LeastLoadedPartition(/*count_pending_inserts=*/true)]
      ->BufferInsert(std::move(row));
}

bool PartitionedTable::pdt_empty() const {
  for (const auto& p : partitions_) {
    if (!p->pdt().empty()) return false;
  }
  return true;
}

std::uint64_t PartitionedTable::MemoryUsageBytes() const {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->MemoryUsageBytes();
  return total;
}

}  // namespace patchindex
