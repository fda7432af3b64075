#include "baselines/join_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "exec/scan.h"

namespace patchindex {

namespace {

std::unordered_map<std::int64_t, RowId> BuildDimLookup(const Table& dim,
                                                       std::size_t dim_key) {
  const auto& keys = dim.column(dim_key).i64_data();
  std::unordered_map<std::int64_t, RowId> lookup;
  lookup.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [it, inserted] = lookup.emplace(keys[i], i);
    PIDX_CHECK_MSG(inserted, "JoinIndex dimension keys must be unique");
  }
  return lookup;
}

/// Scan of the fact table that gathers dimension columns through the
/// materialized partner rowIDs.
class GatherJoinOperator : public Operator {
 public:
  GatherJoinOperator(const Table& fact, const Table& dim,
                     const std::vector<RowId>& partner,
                     std::vector<std::size_t> fact_cols,
                     std::vector<std::size_t> dim_cols)
      : fact_(fact),
        dim_(dim),
        partner_(partner),
        fact_cols_(std::move(fact_cols)),
        dim_cols_(std::move(dim_cols)) {}

  std::vector<ColumnType> OutputTypes() const override {
    std::vector<ColumnType> types;
    for (std::size_t c : fact_cols_) {
      types.push_back(fact_.schema().field(c).type);
    }
    for (std::size_t c : dim_cols_) {
      types.push_back(dim_.schema().field(c).type);
    }
    return types;
  }

  void Open() override { pos_ = 0; }

  bool Next(Batch* out) override {
    out->Reset(OutputTypes());
    const std::uint64_t n = fact_.num_rows();
    while (out->num_rows() < kBatchSize && pos_ < n) {
      // Runs of consecutive matched fact rows move as bulk column slices;
      // only the dimension gather is per-row (it is a random access by
      // construction).
      const RowId begin = pos_;
      const RowId cap = std::min<RowId>(
          n, begin + (kBatchSize - out->num_rows()));
      RowId end = begin;
      while (end < cap && partner_[end] != kInvalidRowId) ++end;
      if (end == begin) {  // dangling foreign key
        ++pos_;
        continue;
      }
      pos_ = end;
      std::size_t oc = 0;
      for (std::size_t c : fact_cols_) {
        out->columns[oc++].AppendRange(fact_.column(c), begin, end);
      }
      for (std::size_t c : dim_cols_) {
        ColumnVector& dst = out->columns[oc++];
        for (RowId f = begin; f < end; ++f) {
          dst.AppendFromColumn(dim_.column(c), partner_[f]);
        }
      }
      for (RowId f = begin; f < end; ++f) out->row_ids.push_back(f);
    }
    return out->num_rows() > 0;
  }

 private:
  const Table& fact_;
  const Table& dim_;
  const std::vector<RowId>& partner_;
  std::vector<std::size_t> fact_cols_;
  std::vector<std::size_t> dim_cols_;
  RowId pos_ = 0;
};

}  // namespace

JoinIndex::JoinIndex(const Table& fact, std::size_t fact_key, const Table& dim,
                     std::size_t dim_key)
    : fact_(&fact), dim_(&dim), fact_key_(fact_key), dim_key_(dim_key) {
  PIDX_CHECK(fact.schema().field(fact_key).type == ColumnType::kInt64);
  PIDX_CHECK(dim.schema().field(dim_key).type == ColumnType::kInt64);
  Rebuild();
}

void JoinIndex::Rebuild() {
  const auto lookup = BuildDimLookup(*dim_, dim_key_);
  const auto& fk = fact_->column(fact_key_).i64_data();
  partner_.assign(fk.size(), kInvalidRowId);
  for (std::size_t i = 0; i < fk.size(); ++i) {
    auto it = lookup.find(fk[i]);
    if (it != lookup.end()) partner_[i] = it->second;
  }
}

Status JoinIndex::MaintainAfterFactUpdate(
    const std::vector<RowId>& deleted_rows) {
  if (!deleted_rows.empty()) {
    std::size_t write = 0;
    std::size_t di = 0;
    for (std::size_t read = 0; read < partner_.size(); ++read) {
      while (di < deleted_rows.size() && deleted_rows[di] < read) ++di;
      if (di < deleted_rows.size() && deleted_rows[di] == read) continue;
      partner_[write++] = partner_[read];
    }
    partner_.resize(write);
  }
  if (fact_->num_rows() > partner_.size()) {
    // Appended rows: look up their partners.
    const auto lookup = BuildDimLookup(*dim_, dim_key_);
    const auto& fk = fact_->column(fact_key_).i64_data();
    for (std::size_t i = partner_.size(); i < fk.size(); ++i) {
      auto it = lookup.find(fk[i]);
      partner_.push_back(it == lookup.end() ? kInvalidRowId : it->second);
    }
  }
  if (fact_->num_rows() != partner_.size()) {
    return Status::Internal("JoinIndex out of sync with fact table");
  }
  return Status::OK();
}

Status JoinIndex::MaintainAfterDimDelete(
    const std::vector<RowId>& deleted_dim_rows) {
  if (deleted_dim_rows.empty()) return Status::OK();
  for (RowId& p : partner_) {
    if (p == kInvalidRowId) continue;
    const auto it = std::lower_bound(deleted_dim_rows.begin(),
                                     deleted_dim_rows.end(), p);
    if (it != deleted_dim_rows.end() && *it == p) {
      p = kInvalidRowId;  // partner row deleted
    } else {
      p -= static_cast<RowId>(it - deleted_dim_rows.begin());
    }
  }
  return Status::OK();
}

OperatorPtr JoinIndex::QueryPlan(std::vector<std::size_t> fact_cols,
                                 std::vector<std::size_t> dim_cols) const {
  return std::make_unique<GatherJoinOperator>(*fact_, *dim_, partner_,
                                              std::move(fact_cols),
                                              std::move(dim_cols));
}

}  // namespace patchindex
