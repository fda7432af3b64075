#include "exec/hash_join.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "obs/mem_tracker.h"

namespace patchindex {

void JoinHashTable::Reset(const std::vector<ColumnType>& build_types) {
  rows_.Reset(build_types);
  unique_.clear();
  chained_.clear();
}

void JoinHashTable::Reserve(std::size_t n) {
  // Rows land in exactly one of the two structures; reserving both for
  // `n` wastes a little space but never rehashes.
  unique_.reserve(n);
  chained_.reserve(n);
}

void JoinHashTable::AddRow(const Batch& src, std::size_t row,
                           std::int64_t key, bool unique_hint) {
  const std::size_t idx = rows_.num_rows();
  rows_.AppendRowFrom(src, row);
  if (unique_hint) {
    auto [it, inserted] = unique_.emplace(key, idx);
    if (inserted) return;
    // Violated promise: demote the resident occurrence to the chained
    // path alongside the new one; probes check both structures, so every
    // copy is still found.
    chained_.emplace(key, it->second);
    unique_.erase(it);
  }
  chained_.emplace(key, idx);
}

HashJoinOperator::HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                                   std::size_t build_key,
                                   std::size_t probe_key)
    : build_(std::move(build)), build_key_(build_key) {
  tables_.types = build_->OutputTypes();
  PIDX_CHECK(tables_.types.at(build_key_) == ColumnType::kInt64);
  probe_ = std::make_unique<PartitionProbeOperator>(
      std::move(probe), &tables_, probe_key, /*build_is_left=*/false);
}

void HashJoinOperator::Open() {
  // Build phase: materialize first, then index with a full reserve (the
  // row count is unknown until the child is drained).
  build_->Open();
  obs::OpMemory mem("HashJoin build");
  Batch all;
  all.Reset(tables_.types);
  Batch in;
  while (build_->Next(&in)) {
    mem.Add(ApproxBytes(in));
    all.AppendRows(in, 0, in.num_rows());
  }
  build_->Close();
  auto parts = std::make_shared<std::vector<JoinHashTable>>(1);
  JoinHashTable& table = parts->front();
  table.Reset(tables_.types);
  table.Reserve(all.num_rows());
  const std::uint64_t input_bytes = mem.total();
  const auto& keys = all.columns[build_key_].i64;
  for (std::size_t i = 0; i < all.num_rows(); ++i) {
    table.AddRow(all, i, keys[i]);
    if ((i & 1023u) == 1023u) {
      // Cheap running estimate (the copied prefix of the input plus the
      // per-entry index cost); the exact content-based size is settled
      // once after the loop — recomputing it per kibirow would be O(n²).
      mem.GrowTo(input_bytes +
                 (input_bytes * (i + 1)) / all.num_rows() +
                 (i + 1) * JoinHashTable::kEntryBytes);
    }
  }
  mem.GrowTo(input_bytes + table.ApproxBytes());
  tables_.parts = std::move(parts);
  probe_->Open();
}

void HashJoinOperator::Close() {
  probe_->Close();
  tables_.parts.reset();
}

PartitionProbeOperator::PartitionProbeOperator(
    OperatorPtr child, const PartitionedHashTables* tables,
    std::size_t probe_key, bool build_is_left)
    : child_(std::move(child)), tables_(tables), probe_key_(probe_key) {
  const std::vector<ColumnType> probe_types = child_->OutputTypes();
  const std::vector<ColumnType>& build_types = tables->types;
  PIDX_CHECK(probe_types.at(probe_key_) == ColumnType::kInt64);
  build_off_ = build_is_left ? 0 : probe_types.size();
  probe_off_ = build_is_left ? build_types.size() : 0;
  const auto& first = build_is_left ? build_types : probe_types;
  const auto& second = build_is_left ? probe_types : build_types;
  output_types_ = first;
  output_types_.insert(output_types_.end(), second.begin(), second.end());
}

void PartitionProbeOperator::Open() {
  child_->Open();
  probe_done_ = false;
  probe_batch_.Clear();
  probe_pos_ = 0;
  probe_sel_.clear();
  build_part_.clear();
  build_sel_.clear();
  pair_pos_ = 0;
}

void PartitionProbeOperator::CollectPairs() {
  probe_sel_.clear();
  build_part_.clear();
  build_sel_.clear();
  pair_pos_ = 0;
  const std::vector<JoinHashTable>& parts = *tables_->parts;
  const std::vector<std::int64_t>& keys = probe_batch_.columns[probe_key_].i64;
  while (probe_pos_ < keys.size() && probe_sel_.size() < kBatchSize) {
    const std::size_t i = probe_pos_++;
    const std::size_t p = JoinKeyPartition(keys[i], tables_->mask);
    parts[p].ForEachMatch(keys[i], [&](std::size_t b) {
      probe_sel_.push_back(i);
      build_part_.push_back(static_cast<std::uint32_t>(p));
      build_sel_.push_back(b);
    });
  }
}

bool PartitionProbeOperator::Next(Batch* out) {
  out->Reset(output_types_);
  while (pair_pos_ >= probe_sel_.size()) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      if (probe_done_ || !child_->Next(&probe_batch_)) {
        probe_done_ = true;
        return false;
      }
      probe_pos_ = 0;
    }
    CollectPairs();
  }
  const std::size_t n = std::min(kBatchSize, probe_sel_.size() - pair_pos_);
  const std::span<const std::size_t> probe_rows(probe_sel_.data() + pair_pos_,
                                                n);
  const std::span<const std::size_t> build_rows(build_sel_.data() + pair_pos_,
                                                n);
  const std::uint32_t* part = build_part_.data() + pair_pos_;
  pair_pos_ += n;
  for (std::size_t c = 0; c < probe_batch_.columns.size(); ++c) {
    out->columns[probe_off_ + c].AppendGather(probe_batch_.columns[c],
                                              probe_rows);
  }
  const std::vector<JoinHashTable>& parts = *tables_->parts;
  for (std::size_t c = 0; c < tables_->types.size(); ++c) {
    ColumnVector& dst = out->columns[build_off_ + c];
    if (parts.size() == 1) {
      dst.AppendGather(parts[0].rows().columns[c], build_rows);
      continue;
    }
    // Each pair's build row lives in its own partition's table.
    const auto gather = [&](auto cells) {
      auto& d = dst.*cells;
      d.reserve(d.size() + n);
      for (std::size_t k = 0; k < n; ++k) {
        d.push_back((parts[part[k]].rows().columns[c].*cells)[build_rows[k]]);
      }
    };
    switch (dst.type) {
      case ColumnType::kInt64:
        gather(&ColumnVector::i64);
        break;
      case ColumnType::kDouble:
        gather(&ColumnVector::f64);
        break;
      case ColumnType::kString:
        gather(&ColumnVector::str);
        break;
    }
  }
  AppendGathered(&out->row_ids, probe_batch_.row_ids, probe_rows);
  return true;
}

}  // namespace patchindex
