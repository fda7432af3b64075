#include "storage/column.h"

#include <algorithm>

#include "storage/minmax.h"

namespace patchindex {

void Column::Append(const Value& v) {
  switch (type_) {
    case ColumnType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ColumnType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ColumnType::kString:
      AppendString(v.AsString());
      break;
  }
}

Value Column::Get(RowId row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return Value(GetInt64(row));
    case ColumnType::kDouble:
      return Value(GetDouble(row));
    case ColumnType::kString:
      return Value(GetString(row));
  }
  return Value();
}

void Column::Set(RowId row, const Value& v) {
  switch (type_) {
    case ColumnType::kInt64:
      i64_[row] = v.AsInt64();
      break;
    case ColumnType::kDouble:
      f64_[row] = v.AsDouble();
      break;
    case ColumnType::kString:
      str_[row] = v.AsString();
      break;
  }
  DropSummary();
}

namespace {
template <typename T>
void CompactAway(std::vector<T>& data, const std::vector<RowId>& rows) {
  if (rows.empty()) return;
  std::size_t write = rows[0];
  std::size_t next_kill = 0;
  for (std::size_t read = rows[0]; read < data.size(); ++read) {
    if (next_kill < rows.size() && rows[next_kill] == read) {
      ++next_kill;
      continue;
    }
    data[write++] = std::move(data[read]);
  }
  data.resize(write);
}
}  // namespace

void Column::DeleteRows(const std::vector<RowId>& sorted_rows) {
  if (sorted_rows.empty()) return;
  DropSummary();
  switch (type_) {
    case ColumnType::kInt64:
      CompactAway(i64_, sorted_rows);
      break;
    case ColumnType::kDouble:
      CompactAway(f64_, sorted_rows);
      break;
    case ColumnType::kString:
      CompactAway(str_, sorted_rows);
      break;
  }
}

std::shared_ptr<const MinMaxIndex> Column::BlockSummary() const {
  PIDX_CHECK(type_ == ColumnType::kInt64);
  std::lock_guard<std::mutex> lock(summary_.mu);
  const std::shared_ptr<const MinMaxIndex>& cached = summary_.index;
  if (cached != nullptr && cached->num_rows() == i64_.size()) return cached;
  std::shared_ptr<MinMaxIndex> next;
  if (cached != nullptr && cached->num_rows() < i64_.size()) {
    // Rows were appended since the build: extend a copy, never the shared
    // original (other holders may still be scanning with it).
    next = std::make_shared<MinMaxIndex>(*cached);
    next->ExtendFromColumn(*this);
  } else {
    next = std::make_shared<MinMaxIndex>(*this, kSummaryBlockRows);
  }
  summary_.index = next;
  return next;
}

std::uint64_t Column::MemoryUsageBytes() const {
  switch (type_) {
    case ColumnType::kInt64:
      return i64_.capacity() * sizeof(std::int64_t);
    case ColumnType::kDouble:
      return f64_.capacity() * sizeof(double);
    case ColumnType::kString: {
      std::uint64_t total = str_.capacity() * sizeof(std::string);
      for (const auto& s : str_) total += s.capacity();
      return total;
    }
  }
  return 0;
}

}  // namespace patchindex
