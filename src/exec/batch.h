#ifndef PATCHINDEX_EXEC_BATCH_H_
#define PATCHINDEX_EXEC_BATCH_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/value.h"

namespace patchindex {

class Column;

/// Tuples processed per operator invocation (X100-style vector size).
inline constexpr std::size_t kBatchSize = 1024;

/// The one total order on DOUBLE cells, used by comparisons, sorts and
/// merges alike: the IEEE order, except that NaN sorts above +inf and
/// equals only NaN (as in PostgreSQL). −0.0 and +0.0 compare equal. Plain
/// `<` makes NaN tie with every value, which answers `d = 1.0` for a NaN
/// row and hands std::sort a comparator that is not a strict weak order.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

/// Appends `src[idx[0]], src[idx[1]], ...` to `dst`: the gather primitive
/// every selection, join and permutation goes through, one typed loop per
/// column instead of one out-of-line call per cell.
template <typename T>
void AppendGathered(std::vector<T>* dst, const std::vector<T>& src,
                    std::span<const std::size_t> idx) {
  const std::size_t base = dst->size();
  if constexpr (std::is_trivially_copyable_v<T>) {
    dst->resize(base + idx.size());
    T* out = dst->data() + base;
    const T* in = src.data();
    for (std::size_t i = 0; i < idx.size(); ++i) out[i] = in[idx[i]];
  } else {
    dst->reserve(base + idx.size());
    for (std::size_t i : idx) dst->push_back(src[i]);
  }
}

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
  /// Copies cells [begin, end) of `src` (same type).
  void AppendSlice(const ColumnVector& src, std::size_t begin,
                   std::size_t end) {
    PIDX_DCHECK(src.type == type);
    switch (type) {
      case ColumnType::kInt64:
        i64.insert(i64.end(), src.i64.begin() + begin, src.i64.begin() + end);
        break;
      case ColumnType::kDouble:
        f64.insert(f64.end(), src.f64.begin() + begin, src.f64.begin() + end);
        break;
      case ColumnType::kString:
        str.insert(str.end(), src.str.begin() + begin, src.str.begin() + end);
        break;
    }
  }
  /// Copies cells `idx` of `src` (same type), in index order.
  void AppendGather(const ColumnVector& src, std::span<const std::size_t> idx) {
    PIDX_DCHECK(src.type == type);
    switch (type) {
      case ColumnType::kInt64:
        AppendGathered(&i64, src.i64, idx);
        break;
      case ColumnType::kDouble:
        AppendGathered(&f64, src.f64, idx);
        break;
      case ColumnType::kString:
        AppendGathered(&str, src.str, idx);
        break;
    }
  }
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

  /// Appends rows `idx` of `src` (same layout), in index order, one
  /// column at a time.
  void AppendGather(const Batch& src, std::span<const std::size_t> idx) {
    PIDX_DCHECK(columns.size() == src.columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      columns[c].AppendGather(src.columns[c], idx);
    }
    AppendGathered(&row_ids, src.row_ids, idx);
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
      columns[c].AppendSlice(src.columns[c], begin, end);
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
