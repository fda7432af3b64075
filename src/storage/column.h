#ifndef PATCHINDEX_STORAGE_COLUMN_H_
#define PATCHINDEX_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/value.h"

namespace patchindex {

class MinMaxIndex;

/// A typed in-memory column. Exactly one of the backing vectors is active,
/// selected by type(). Accessors are checked in debug builds only; the
/// vectorized operators copy slices out via the typed data() spans.
///
/// An INT64 column also caches a per-block min/max summary (BlockSummary)
/// for scan pruning. Set*/DeleteRows drop it; appends leave it covering a
/// prefix, which the next BlockSummary() call extends.
class Column {
 public:
  /// Rows per block of the cached min/max summary.
  static constexpr std::uint64_t kSummaryBlockRows = 1024;

  explicit Column(ColumnType type) : type_(type) {}

  ColumnType type() const { return type_; }

  std::uint64_t size() const {
    switch (type_) {
      case ColumnType::kInt64:
        return i64_.size();
      case ColumnType::kDouble:
        return f64_.size();
      case ColumnType::kString:
        return str_.size();
    }
    return 0;
  }

  void Reserve(std::uint64_t n) {
    switch (type_) {
      case ColumnType::kInt64:
        i64_.reserve(n);
        break;
      case ColumnType::kDouble:
        f64_.reserve(n);
        break;
      case ColumnType::kString:
        str_.reserve(n);
        break;
    }
  }

  void AppendInt64(std::int64_t v) {
    PIDX_DCHECK(type_ == ColumnType::kInt64);
    i64_.push_back(v);
  }
  void AppendDouble(double v) {
    PIDX_DCHECK(type_ == ColumnType::kDouble);
    f64_.push_back(v);
  }
  void AppendString(std::string v) {
    PIDX_DCHECK(type_ == ColumnType::kString);
    str_.push_back(std::move(v));
  }
  void Append(const Value& v);

  std::int64_t GetInt64(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kInt64 && row < i64_.size());
    return i64_[row];
  }
  double GetDouble(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kDouble && row < f64_.size());
    return f64_[row];
  }
  const std::string& GetString(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kString && row < str_.size());
    return str_[row];
  }
  Value Get(RowId row) const;

  void SetInt64(RowId row, std::int64_t v) {
    PIDX_DCHECK(type_ == ColumnType::kInt64 && row < i64_.size());
    i64_[row] = v;
    DropSummary();
  }
  void Set(RowId row, const Value& v);

  /// Deletes the given sorted, unique row positions, compacting the column.
  void DeleteRows(const std::vector<RowId>& sorted_rows);

  const std::vector<std::int64_t>& i64_data() const { return i64_; }
  const std::vector<double>& f64_data() const { return f64_; }
  const std::vector<std::string>& str_data() const { return str_; }

  std::uint64_t MemoryUsageBytes() const;

  /// Per-block min/max bounds of an INT64 column over its current rows
  /// (kSummaryBlockRows-row blocks), built on first use and cached. The
  /// returned summary is immutable; a later mutation makes the column
  /// hand out a new one instead of changing it. Safe to call from many
  /// readers of the same (unmutated) column at once.
  std::shared_ptr<const MinMaxIndex> BlockSummary() const;

 private:
  /// The cached summary and its lock. A copy shares the immutable summary
  /// (it describes identical data) and gets a lock of its own.
  struct SummarySlot {
    SummarySlot() = default;
    SummarySlot(const SummarySlot& other) : index(other.Load()) {}
    SummarySlot& operator=(const SummarySlot& other) {
      std::shared_ptr<const MinMaxIndex> copied = other.Load();
      std::lock_guard<std::mutex> lock(mu);
      index = std::move(copied);
      return *this;
    }
    std::shared_ptr<const MinMaxIndex> Load() const {
      std::lock_guard<std::mutex> lock(mu);
      return index;
    }

    mutable std::mutex mu;
    std::shared_ptr<const MinMaxIndex> index;
  };

  void DropSummary() {
    std::lock_guard<std::mutex> lock(summary_.mu);
    summary_.index.reset();
  }

  ColumnType type_;
  std::vector<std::int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  mutable SummarySlot summary_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_COLUMN_H_
