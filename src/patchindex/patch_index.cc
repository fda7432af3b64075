#include "patchindex/patch_index.h"

#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "patchindex/discovery.h"
#include "patchindex/ncc_constraint.h"
#include "patchindex/nsc_constraint.h"
#include "patchindex/nuc_constraint.h"

namespace patchindex {

PatchIndex::PatchIndex(const Table& table, std::size_t column,
                       ConstraintKind kind, PatchIndexOptions options)
    : table_(&table),
      column_(column),
      constraint_(kind),
      options_(options) {}

std::unique_ptr<PatchIndex> PatchIndex::Create(const Table& table,
                                               std::size_t column,
                                               ConstraintKind constraint,
                                               PatchIndexOptions options) {
  PIDX_CHECK_MSG(table.pdt().empty(),
                 "PatchIndex creation requires a checkpointed table");
  PIDX_CHECK(column < table.schema().num_fields());
  PIDX_CHECK_MSG(table.schema().field(column).type == ColumnType::kInt64,
                 "approximate constraints are defined over INT64 columns");
  auto index = std::unique_ptr<PatchIndex>(
      new PatchIndex(table, column, constraint, options));
  Status st = index->Recompute();
  PIDX_CHECK_MSG(st.ok(), st.ToString().c_str());
  return index;
}

Result<std::unique_ptr<PatchIndex>> PatchIndex::Restore(
    const Table& table, const PatchIndexState& state,
    PatchIndexOptions options) {
  if (state.column >= table.schema().num_fields()) {
    return Status::InvalidArgument("checkpoint column out of range");
  }
  if (state.num_rows != table.num_rows() || !table.pdt().empty()) {
    return Status::ConstraintViolation(
        "checkpoint cardinality does not match the table; replay the log "
        "or recreate the index");
  }
  auto index = std::unique_ptr<PatchIndex>(
      new PatchIndex(table, state.column, state.constraint, options));
  index->patches_ = PatchSet::Create(options.design, state.num_rows,
                                     options.bitmap_options);
  for (RowId r : state.patches) {
    if (r >= state.num_rows) {
      return Status::InvalidArgument("checkpoint patch rowID out of range");
    }
    index->patches_->MarkPatch(r);
  }
  index->tail_value_ = state.tail_value;
  index->has_tail_ = state.has_tail;
  index->constant_value_ = state.constant_value;
  index->has_constant_ = state.has_constant;
  return index;
}

std::unique_ptr<PatchIndex> PatchIndex::CloneForSnapshot(
    const Table& table) const {
  PIDX_CHECK(table.num_rows() == table_->num_rows());
  auto clone = std::unique_ptr<PatchIndex>(
      new PatchIndex(table, column_, constraint_, options_));
  clone->options_.maintenance_fault_hook = nullptr;  // snapshots never commit
  clone->patches_ = patches_->Clone(options_.bitmap_options);
  clone->tail_value_ = tail_value_;
  clone->has_tail_ = has_tail_;
  clone->constant_value_ = constant_value_;
  clone->has_constant_ = has_constant_;
  clone->last_scan_fraction_ = last_scan_fraction_;
  return clone;
}

PatchIndexState PatchIndex::ExportState() const {
  PatchIndexState state;
  state.constraint = constraint_;
  state.column = column_;
  state.num_rows = patches_->NumRows();
  state.patches = patches_->PatchRowIds();
  state.has_tail = has_tail_;
  state.tail_value = tail_value_;
  state.has_constant = has_constant_;
  state.constant_value = constant_value_;
  return state;
}

Status PatchIndex::Recompute() {
  const Column& col = table_->column(column_);
  patches_ = PatchSet::Create(options_.design, col.size(),
                              options_.bitmap_options);
  switch (constraint_) {
    case ConstraintKind::kNearlyUnique: {
      for (RowId r : DiscoverNucPatches(col)) patches_->MarkPatch(r);
      break;
    }
    case ConstraintKind::kNearlySorted: {
      NscDiscovery d = DiscoverNscPatches(col, options_.ascending);
      for (RowId r : d.patches) patches_->MarkPatch(r);
      tail_value_ = d.tail_value;
      has_tail_ = d.has_tail;
      break;
    }
    case ConstraintKind::kNearlyConstant: {
      NccDiscovery d = DiscoverNccPatches(col);
      for (RowId r : d.patches) patches_->MarkPatch(r);
      constant_value_ = d.constant;
      has_constant_ = d.has_constant;
      break;
    }
  }
  return Status::OK();
}

Status PatchIndex::HandleUpdateQuery() {
  if (options_.maintenance_fault_hook) {
    PIDX_RETURN_NOT_OK(options_.maintenance_fault_hook("handle"));
  }
  // PatchIndexManager validated the single delta kind before calling.
  const PositionalDelta& pdt = table_->pdt();
  if (!pdt.inserts().empty()) return HandleInsert();
  if (!pdt.modifies().empty()) return HandleModify();
  if (!pdt.deletes().empty()) return HandleDelete();
  return Status::OK();
}

Status PatchIndex::HandleInsert() {
  patches_->OnAppendRows(table_->pdt().inserts().size());
  switch (constraint_) {
    case ConstraintKind::kNearlyUnique:
      return internal::NucHandleInsert(
          *table_, column_, options_.use_dynamic_range_propagation,
          patches_.get(), &last_scan_fraction_);
    case ConstraintKind::kNearlySorted:
      return internal::NscHandleInsert(*table_, column_, options_.ascending,
                                       patches_.get(), &tail_value_,
                                       &has_tail_);
    case ConstraintKind::kNearlyConstant:
      return internal::NccHandleInsert(*table_, column_, patches_.get(),
                                       &constant_value_, &has_constant_);
  }
  return Status::Internal("unknown constraint");
}

Status PatchIndex::HandleModify() {
  switch (constraint_) {
    case ConstraintKind::kNearlyUnique:
      return internal::NucHandleModify(
          *table_, column_, options_.use_dynamic_range_propagation,
          patches_.get(), &last_scan_fraction_);
    case ConstraintKind::kNearlySorted:
      return internal::NscHandleModify(*table_, column_, patches_.get());
    case ConstraintKind::kNearlyConstant:
      return internal::NccHandleModify(*table_, column_, patches_.get(),
                                       constant_value_);
  }
  return Status::Internal("unknown constraint");
}

Status PatchIndex::HandleDelete() {
  // Both constraints: dropping tuples cannot violate uniqueness or
  // sortedness, so the tracking information is simply dropped (§5.3).
  patches_->OnDeleteRows(table_->pdt().deletes());
  return Status::OK();
}

Status PatchIndex::AfterCheckpoint() {
  if (options_.maintenance_fault_hook) {
    PIDX_RETURN_NOT_OK(options_.maintenance_fault_hook("after"));
  }
  if (exception_rate() > options_.recompute_threshold) {
    return Recompute();
  }
  return Status::OK();
}

bool PatchIndex::CheckInvariant() const {
  const Column& col = table_->column(column_);
  if (patches_->NumRows() != col.size()) return false;
  if (constraint_ == ConstraintKind::kNearlyUnique) {
    // Invariant behind the Figure 2 distinct decomposition: a non-patch
    // row's value occurs nowhere else in the column (neither at another
    // non-patch row nor at a patch row).
    std::unordered_map<std::int64_t, std::uint32_t> counts;
    for (RowId r = 0; r < col.size(); ++r) ++counts[col.GetInt64(r)];
    for (RowId r = 0; r < col.size(); ++r) {
      if (!patches_->IsPatch(r) && counts[col.GetInt64(r)] != 1) return false;
    }
    return true;
  }
  if (constraint_ == ConstraintKind::kNearlyConstant) {
    for (RowId r = 0; r < col.size(); ++r) {
      if (!patches_->IsPatch(r) && col.GetInt64(r) != constant_value_) {
        return false;
      }
    }
    return true;
  }
  bool first = true;
  std::int64_t prev = 0;
  for (RowId r = 0; r < col.size(); ++r) {
    if (patches_->IsPatch(r)) continue;
    const std::int64_t v = col.GetInt64(r);
    if (!first) {
      if (options_.ascending ? v < prev : v > prev) return false;
    }
    prev = v;
    first = false;
  }
  return true;
}

}  // namespace patchindex
