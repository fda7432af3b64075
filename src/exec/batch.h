#ifndef PATCHINDEX_EXEC_BATCH_H_
#define PATCHINDEX_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/value.h"

namespace patchindex {

class Column;

/// Tuples processed per operator invocation (X100-style vector size).
inline constexpr std::size_t kBatchSize = 1024;

/// A typed vector of cell values flowing between operators. Exactly one
/// backing vector is active, selected by `type`.
struct ColumnVector {
  ColumnType type = ColumnType::kInt64;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;

  explicit ColumnVector(ColumnType t = ColumnType::kInt64) : type(t) {}

  std::size_t size() const {
    switch (type) {
      case ColumnType::kInt64:
        return i64.size();
      case ColumnType::kDouble:
        return f64.size();
      case ColumnType::kString:
        return str.size();
    }
    return 0;
  }

  void Clear() {
    i64.clear();
    f64.clear();
    str.clear();
  }

  void AppendValue(const Value& v);
  /// Copies cell `idx` of `src` (same type) to the end of this vector.
  void AppendFrom(const ColumnVector& src, std::size_t idx);
  /// Copies cell `row` of a storage column (same type), without boxing.
  void AppendFromColumn(const Column& src, RowId row);
  /// Copies rows [begin, end) of a storage column (same type), one block
  /// segment at a time.
  void AppendRange(const Column& src, RowId begin, RowId end);
  Value GetValue(std::size_t idx) const;
};

/// A horizontal slice of tuples: one ColumnVector per output column plus
/// the originating rowIDs (filled by scans; the PatchIndex selection
/// operator decides pass/drop purely on the rowID, which is why its
/// per-tuple overhead is independent of the data types — paper §3.5).
struct Batch {
  std::vector<ColumnVector> columns;
  std::vector<RowId> row_ids;

  std::size_t num_rows() const { return row_ids.size(); }

  /// The column types, in order.
  std::vector<ColumnType> types() const {
    std::vector<ColumnType> out;
    out.reserve(columns.size());
    for (const ColumnVector& c : columns) out.push_back(c.type);
    return out;
  }

  void Reset(const std::vector<ColumnType>& types) {
    columns.clear();
    for (ColumnType t : types) columns.emplace_back(t);
    row_ids.clear();
  }

  void Clear() {
    for (auto& c : columns) c.Clear();
    row_ids.clear();
  }

  /// Appends row `idx` of `src` (same layout).
  void AppendRowFrom(const Batch& src, std::size_t idx) {
    PIDX_DCHECK(columns.size() == src.columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      columns[c].AppendFrom(src.columns[c], idx);
    }
    row_ids.push_back(src.row_ids[idx]);
  }

  /// Appends rows [begin, end) of `src` (same layout), column-wise.
  void AppendRows(const Batch& src, std::size_t begin, std::size_t end) {
    PIDX_DCHECK(columns.size() == src.columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      ColumnVector& d = columns[c];
      const ColumnVector& s = src.columns[c];
      switch (d.type) {
        case ColumnType::kInt64:
          d.i64.insert(d.i64.end(), s.i64.begin() + begin,
                       s.i64.begin() + end);
          break;
        case ColumnType::kDouble:
          d.f64.insert(d.f64.end(), s.f64.begin() + begin,
                       s.f64.begin() + end);
          break;
        case ColumnType::kString:
          d.str.insert(d.str.end(), s.str.begin() + begin,
                       s.str.begin() + end);
          break;
      }
    }
    row_ids.insert(row_ids.end(), src.row_ids.begin() + begin,
                   src.row_ids.begin() + end);
  }
};

/// Content-based size estimate for memory accounting: 8 bytes per fixed
/// cell, object header + character count per string. Deliberately a
/// function of the values alone (not vector capacities), so splitting a
/// batch across workers sums to the same total as keeping it whole —
/// which keeps `mem=` in EXPLAIN ANALYZE deterministic under morsel
/// scheduling.
inline std::uint64_t ApproxBytes(const ColumnVector& v) {
  switch (v.type) {
    case ColumnType::kInt64:
      return static_cast<std::uint64_t>(v.i64.size()) * sizeof(std::int64_t);
    case ColumnType::kDouble:
      return static_cast<std::uint64_t>(v.f64.size()) * sizeof(double);
    case ColumnType::kString: {
      std::uint64_t bytes =
          static_cast<std::uint64_t>(v.str.size()) * sizeof(std::string);
      for (const std::string& s : v.str) bytes += s.size();
      return bytes;
    }
  }
  return 0;
}

inline std::uint64_t ApproxBytes(const Batch& b) {
  std::uint64_t bytes =
      static_cast<std::uint64_t>(b.row_ids.size()) * sizeof(RowId);
  for (const ColumnVector& c : b.columns) bytes += ApproxBytes(c);
  return bytes;
}

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_BATCH_H_
