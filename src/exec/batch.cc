#include "exec/batch.h"

#include "storage/column.h"

namespace patchindex {

void ColumnVector::AppendFromColumn(const Column& src, RowId row) {
  PIDX_DCHECK(src.type() == type);
  switch (type) {
    case ColumnType::kInt64:
      i64.push_back(src.GetInt64(row));
      break;
    case ColumnType::kDouble:
      f64.push_back(src.GetDouble(row));
      break;
    case ColumnType::kString:
      str.push_back(src.GetString(row));
      break;
  }
}

void ColumnVector::AppendRange(const Column& src, RowId begin, RowId end) {
  PIDX_DCHECK(src.type() == type);
  switch (type) {
    case ColumnType::kInt64:
      src.ForEachSpan<std::int64_t>(
          begin, end, [this](const std::int64_t* cells, std::size_t n) {
            i64.insert(i64.end(), cells, cells + n);
          });
      break;
    case ColumnType::kDouble:
      src.ForEachSpan<double>(begin, end,
                              [this](const double* cells, std::size_t n) {
                                f64.insert(f64.end(), cells, cells + n);
                              });
      break;
    case ColumnType::kString:
      src.ForEachSpan<std::string>(
          begin, end, [this](const std::string* cells, std::size_t n) {
            str.insert(str.end(), cells, cells + n);
          });
      break;
  }
}

void ColumnVector::AppendValue(const Value& v) {
  PIDX_DCHECK(v.type() == type);
  switch (type) {
    case ColumnType::kInt64:
      i64.push_back(v.AsInt64());
      break;
    case ColumnType::kDouble:
      f64.push_back(v.AsDouble());
      break;
    case ColumnType::kString:
      str.push_back(v.AsString());
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, std::size_t idx) {
  PIDX_DCHECK(src.type == type);
  switch (type) {
    case ColumnType::kInt64:
      i64.push_back(src.i64[idx]);
      break;
    case ColumnType::kDouble:
      f64.push_back(src.f64[idx]);
      break;
    case ColumnType::kString:
      str.push_back(src.str[idx]);
      break;
  }
}

Value ColumnVector::GetValue(std::size_t idx) const {
  switch (type) {
    case ColumnType::kInt64:
      return Value(i64[idx]);
    case ColumnType::kDouble:
      return Value(f64[idx]);
    case ColumnType::kString:
      return Value(str[idx]);
  }
  return Value();
}

}  // namespace patchindex
