#ifndef PATCHINDEX_PATCHINDEX_PATCH_SET_H_
#define PATCHINDEX_PATCHINDEX_PATCH_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bitmap/sharded_bitmap.h"
#include "common/types.h"
#include "exec/row_filter.h"

namespace patchindex {

/// The two PatchIndex design approaches of the paper (§3.2).
enum class PatchSetDesign {
  /// One bit per tuple in a sharded bitmap: dense storage, constant memory
  /// (t/8 · 1.0039 bytes), cheaper for exception rates above ~1/64.
  kBitmap,
  /// Sorted list of 64-bit rowIDs: sparse storage, e·t·8 bytes, cheaper
  /// for very low exception rates.
  kIdentifier,
};

/// Materialized set of exceptions ("patches") to an approximate
/// constraint, identified by rowID. Supports the table-update hooks the
/// paper's §5 mechanisms need: appending rows (table grew), bulk-deleting
/// rows (table shrank — tracking information about deleted tuples is
/// simply dropped), and marking new patches.
class PatchSet : public RowIdFilter {
 public:
  /// Marks `row` as a patch (idempotent).
  virtual void MarkPatch(RowId row) = 0;

  /// The table grew by `count` rows (none of them patches yet).
  virtual void OnAppendRows(std::uint64_t count) = 0;

  /// The given rows (sorted, unique, pre-delete rowIDs) were deleted from
  /// the table: drop their tracking info and shift subsequent rowIDs down.
  virtual void OnDeleteRows(const std::vector<RowId>& sorted_rows) = 0;

  /// All patch rowIDs, ascending.
  virtual std::vector<RowId> PatchRowIds() const = 0;

  virtual std::uint64_t MemoryUsageBytes() const = 0;
  virtual PatchSetDesign design() const = 0;

  double exception_rate() const {
    const std::uint64_t n = NumRows();
    return n == 0 ? 0.0 : static_cast<double>(NumPatches()) / n;
  }

  static std::unique_ptr<PatchSet> Create(PatchSetDesign design,
                                          std::uint64_t num_rows,
                                          ShardedBitmapOptions options = {});

  /// Deep copy of the design's own container (the sharded bitmap's words
  /// and start values, or the identifier list), lost bits included. Used
  /// to freeze index state into an MVCC version snapshot.
  virtual std::unique_ptr<PatchSet> Clone() const = 0;
};

/// Bitmap-based design: bit i set <=> row i is a patch. Deletes map to the
/// sharded bitmap's (bulk) delete, so they stay shard-local.
class BitmapPatchSet : public PatchSet {
 public:
  explicit BitmapPatchSet(std::uint64_t num_rows,
                          ShardedBitmapOptions options = {});

  std::uint64_t NumRows() const override { return bitmap_.size(); }
  std::uint64_t NumPatches() const override { return num_patches_; }
  bool IsPatch(RowId row) const override { return bitmap_.Get(row); }
  void ForEachPatchInRange(
      RowId begin, RowId end,
      const std::function<void(RowId)>& fn) const override {
    bitmap_.ForEachSetBitInRange(begin, end, fn);
  }
  void MarkPatch(RowId row) override;
  void OnAppendRows(std::uint64_t count) override { bitmap_.Append(count); }
  void OnDeleteRows(const std::vector<RowId>& sorted_rows) override;
  std::vector<RowId> PatchRowIds() const override {
    return bitmap_.SetBitPositions();
  }
  std::uint64_t MemoryUsageBytes() const override {
    return bitmap_.MemoryUsageBytes();
  }
  PatchSetDesign design() const override { return PatchSetDesign::kBitmap; }
  std::unique_ptr<PatchSet> Clone() const override {
    return std::make_unique<BitmapPatchSet>(*this);
  }

  const ShardedBitmap& bitmap() const { return bitmap_; }

 private:
  ShardedBitmap bitmap_;
  std::uint64_t num_patches_ = 0;
};

/// Identifier-based design: a sorted vector of 64-bit rowIDs. A delete
/// decrements every identifier behind it while walking the list once
/// (paper §5.3).
class IdentifierPatchSet : public PatchSet {
 public:
  explicit IdentifierPatchSet(std::uint64_t num_rows) : num_rows_(num_rows) {}

  std::uint64_t NumRows() const override { return num_rows_; }
  std::uint64_t NumPatches() const override { return ids_.size(); }
  bool IsPatch(RowId row) const override;
  void ForEachPatchInRange(
      RowId begin, RowId end,
      const std::function<void(RowId)>& fn) const override;
  void MarkPatch(RowId row) override;
  void OnAppendRows(std::uint64_t count) override { num_rows_ += count; }
  void OnDeleteRows(const std::vector<RowId>& sorted_rows) override;
  std::vector<RowId> PatchRowIds() const override { return ids_; }
  std::uint64_t MemoryUsageBytes() const override {
    return ids_.capacity() * sizeof(RowId);
  }
  PatchSetDesign design() const override {
    return PatchSetDesign::kIdentifier;
  }
  std::unique_ptr<PatchSet> Clone() const override {
    return std::make_unique<IdentifierPatchSet>(*this);
  }

 private:
  std::vector<RowId> ids_;  // sorted ascending
  std::uint64_t num_rows_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_PATCHINDEX_PATCH_SET_H_
