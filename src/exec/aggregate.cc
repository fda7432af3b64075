#include "exec/aggregate.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/mem_tracker.h"

namespace patchindex {

namespace {
/// Estimated heap cost per hash-index entry (node + key + value).
constexpr std::uint64_t kIndexEntryBytes = 48;
}  // namespace

std::uint64_t HashAggregateOperator::ApproxStateBytes() const {
  std::uint64_t bytes = ApproxBytes(groups_);
  for (const auto& v : agg_i64_) bytes += v.size() * sizeof(std::int64_t);
  for (const auto& v : agg_f64_) bytes += v.size() * sizeof(double);
  // Encoded generic keys roughly mirror the group columns' content,
  // which ApproxBytes(groups_) already counted; the flat per-entry cost
  // covers the index nodes themselves.
  bytes +=
      (i64_index_.size() + generic_index_.size()) * kIndexEntryBytes;
  return bytes;
}

HashAggregateOperator::HashAggregateOperator(
    OperatorPtr child, std::vector<std::size_t> group_cols,
    std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  PIDX_CHECK(!group_cols_.empty());
  single_i64_key_ = group_cols_.size() == 1 &&
                    child_->OutputTypes()[group_cols_[0]] == ColumnType::kInt64;
}

std::vector<ColumnType> HashAggregateOperator::OutputTypes() const {
  const std::vector<ColumnType> input = child_->OutputTypes();
  std::vector<ColumnType> out;
  for (std::size_t c : group_cols_) out.push_back(input[c]);
  for (const AggSpec& a : aggs_) {
    switch (a.op) {
      case AggOp::kCount:
        out.push_back(ColumnType::kInt64);
        break;
      case AggOp::kSum:
      case AggOp::kMin:
      case AggOp::kMax:
        out.push_back(input[a.column]);
        break;
    }
  }
  return out;
}

void HashAggregateOperator::Open() {
  child_->Open();
  std::vector<ColumnType> group_types;
  const std::vector<ColumnType> input = child_->OutputTypes();
  for (std::size_t c : group_cols_) group_types.push_back(input[c]);
  groups_.Reset(group_types);
  agg_f64_.assign(aggs_.size(), {});
  agg_i64_.assign(aggs_.size(), {});
  i64_index_.clear();
  generic_index_.clear();

  // Re-estimate the table's footprint as groups accumulate (an exact
  // running count would touch the accounting on every row); the final
  // GrowTo settles the charge to the exact content-based size.
  obs::OpMemory mem("HashAggregate", mem_stats_);
  std::size_t sized_groups = 0;
  Batch in;
  while (child_->Next(&in)) {
    if (single_i64_key_) {
      ConsumeSingleInt64(in);
    } else {
      ConsumeGeneric(in);
    }
    if (groups_.num_rows() - sized_groups >= 4096) {
      sized_groups = groups_.num_rows();
      mem.GrowTo(ApproxStateBytes());
    }
  }
  mem.GrowTo(ApproxStateBytes());
  child_->Close();
  pos_ = 0;
}

namespace {
// Encodes a group key as a byte string (generic slow path).
std::string EncodeKey(const Batch& in, const std::vector<std::size_t>& cols,
                      std::size_t row) {
  std::string key;
  for (std::size_t c : cols) {
    const ColumnVector& col = in.columns[c];
    switch (col.type) {
      case ColumnType::kInt64: {
        const std::int64_t v = col.i64[row];
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kDouble: {
        const double v = col.f64[row];
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kString:
        key.append(col.str[row]);
        key.push_back('\0');
        break;
    }
  }
  return key;
}
}  // namespace

void HashAggregateOperator::ConsumeSingleInt64(const Batch& in) {
  const auto& keys = in.columns[group_cols_[0]].i64;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [it, inserted] = i64_index_.try_emplace(keys[i], groups_.num_rows());
    const std::size_t g = it->second;
    if (inserted) {
      groups_.columns[0].i64.push_back(keys[i]);
      groups_.row_ids.push_back(in.row_ids[i]);
      for (std::size_t a = 0; a < aggs_.size(); ++a) {
        agg_i64_[a].push_back(
            aggs_[a].op == AggOp::kMin
                ? std::numeric_limits<std::int64_t>::max()
                : (aggs_[a].op == AggOp::kMax
                       ? std::numeric_limits<std::int64_t>::min()
                       : 0));
        agg_f64_[a].push_back(
            aggs_[a].op == AggOp::kMin
                ? std::numeric_limits<double>::infinity()
                : (aggs_[a].op == AggOp::kMax
                       ? -std::numeric_limits<double>::infinity()
                       : 0.0));
      }
    }
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      if (spec.op == AggOp::kCount) {
        ++agg_i64_[a][g];
        continue;
      }
      const ColumnVector& col = in.columns[spec.column];
      if (col.type == ColumnType::kInt64) {
        const std::int64_t v = col.i64[i];
        switch (spec.op) {
          case AggOp::kSum:
            agg_i64_[a][g] += v;
            break;
          case AggOp::kMin:
            agg_i64_[a][g] = std::min(agg_i64_[a][g], v);
            break;
          case AggOp::kMax:
            agg_i64_[a][g] = std::max(agg_i64_[a][g], v);
            break;
          default:
            break;
        }
      } else {
        const double v = col.f64[i];
        switch (spec.op) {
          case AggOp::kSum:
            agg_f64_[a][g] += v;
            break;
          case AggOp::kMin:
            agg_f64_[a][g] = std::min(agg_f64_[a][g], v);
            break;
          case AggOp::kMax:
            agg_f64_[a][g] = std::max(agg_f64_[a][g], v);
            break;
          default:
            break;
        }
      }
    }
  }
}

void HashAggregateOperator::ConsumeGeneric(const Batch& in) {
  for (std::size_t i = 0; i < in.num_rows(); ++i) {
    std::string key = EncodeKey(in, group_cols_, i);
    auto [it, inserted] =
        generic_index_.try_emplace(std::move(key), groups_.num_rows());
    const std::size_t g = it->second;
    if (inserted) {
      for (std::size_t k = 0; k < group_cols_.size(); ++k) {
        groups_.columns[k].AppendFrom(in.columns[group_cols_[k]], i);
      }
      groups_.row_ids.push_back(in.row_ids[i]);
      for (std::size_t a = 0; a < aggs_.size(); ++a) {
        agg_i64_[a].push_back(
            aggs_[a].op == AggOp::kMin
                ? std::numeric_limits<std::int64_t>::max()
                : (aggs_[a].op == AggOp::kMax
                       ? std::numeric_limits<std::int64_t>::min()
                       : 0));
        agg_f64_[a].push_back(
            aggs_[a].op == AggOp::kMin
                ? std::numeric_limits<double>::infinity()
                : (aggs_[a].op == AggOp::kMax
                       ? -std::numeric_limits<double>::infinity()
                       : 0.0));
      }
    }
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      if (spec.op == AggOp::kCount) {
        ++agg_i64_[a][g];
        continue;
      }
      const ColumnVector& col = in.columns[spec.column];
      if (col.type == ColumnType::kInt64) {
        const std::int64_t v = col.i64[i];
        switch (spec.op) {
          case AggOp::kSum:
            agg_i64_[a][g] += v;
            break;
          case AggOp::kMin:
            agg_i64_[a][g] = std::min(agg_i64_[a][g], v);
            break;
          case AggOp::kMax:
            agg_i64_[a][g] = std::max(agg_i64_[a][g], v);
            break;
          default:
            break;
        }
      } else if (col.type == ColumnType::kDouble) {
        const double v = col.f64[i];
        switch (spec.op) {
          case AggOp::kSum:
            agg_f64_[a][g] += v;
            break;
          case AggOp::kMin:
            agg_f64_[a][g] = std::min(agg_f64_[a][g], v);
            break;
          case AggOp::kMax:
            agg_f64_[a][g] = std::max(agg_f64_[a][g], v);
            break;
          default:
            break;
        }
      } else {
        PIDX_CHECK_MSG(false, "string aggregates not supported");
      }
    }
  }
}

bool HashAggregateOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  const std::vector<ColumnType> input = child_->OutputTypes();
  const std::size_t begin = pos_;
  const std::size_t end = std::min(groups_.num_rows(), pos_ + kBatchSize);
  pos_ = end;
  for (std::size_t k = 0; k < group_cols_.size(); ++k) {
    out->columns[k].AppendSlice(groups_.columns[k], begin, end);
  }
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    ColumnVector& dst = out->columns[group_cols_.size() + a];
    const AggSpec& spec = aggs_[a];
    if (spec.op != AggOp::kCount &&
        input[spec.column] == ColumnType::kDouble) {
      dst.f64.assign(agg_f64_[a].begin() + begin, agg_f64_[a].begin() + end);
    } else {
      dst.i64.assign(agg_i64_[a].begin() + begin, agg_i64_[a].begin() + end);
    }
  }
  out->row_ids.assign(groups_.row_ids.begin() + begin,
                      groups_.row_ids.begin() + end);
  return end > begin;
}

void HashAggregateOperator::Close() {
  groups_.Clear();
  agg_f64_.clear();
  agg_i64_.clear();
  i64_index_.clear();
  generic_index_.clear();
}

}  // namespace patchindex
