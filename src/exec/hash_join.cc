#include "exec/hash_join.h"

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
                                   std::size_t probe_key,
                                   HashJoinOptions options)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key),
      options_(std::move(options)) {
  PIDX_CHECK(build_->OutputTypes().at(build_key_) == ColumnType::kInt64);
  PIDX_CHECK(probe_->OutputTypes().at(probe_key_) == ColumnType::kInt64);
}

std::vector<ColumnType> HashJoinOperator::OutputTypes() const {
  std::vector<ColumnType> types = probe_->OutputTypes();
  for (ColumnType t : build_->OutputTypes()) types.push_back(t);
  if (options_.append_build_rowid_column) {
    types.push_back(ColumnType::kInt64);
  }
  return types;
}

void HashJoinOperator::Open() {
  // Build phase: materialize first, then index with a full reserve (the
  // row count is unknown until the child is drained).
  build_->Open();
  table_.Reset(build_->OutputTypes());
  obs::OpMemory mem("HashJoin build", mem_stats_);
  Batch all;
  all.Reset(build_->OutputTypes());
  Batch in;
  while (build_->Next(&in)) {
    mem.Add(ApproxBytes(in));
    for (std::size_t i = 0; i < in.num_rows(); ++i) all.AppendRowFrom(in, i);
  }
  build_->Close();
  const RowIdFilter* nuc = options_.build_unique_filter;
  table_.Reserve(all.num_rows());
  const std::uint64_t input_bytes = mem.total();
  const auto& keys = all.columns[build_key_].i64;
  for (std::size_t i = 0; i < all.num_rows(); ++i) {
    const bool hint = nuc != nullptr && all.row_ids[i] < nuc->NumRows() &&
                      !nuc->IsPatch(all.row_ids[i]);
    table_.AddRow(all, i, keys[i], hint);
    if ((i & 1023u) == 1023u) {
      // Cheap running estimate (the copied prefix of the input plus the
      // per-entry index cost); the exact content-based size is settled
      // once after the loop — recomputing it per kibirow would be O(n²).
      mem.GrowTo(input_bytes +
                 (input_bytes * (i + 1)) / all.num_rows() +
                 (i + 1) * JoinHashTable::kEntryBytes);
    }
  }
  mem.GrowTo(input_bytes + table_.ApproxBytes());

  // Dynamic range propagation: publish the build key range *before*
  // opening the probe side, whose scan prunes blocks against it.
  if (options_.publish_build_range) {
    *options_.publish_build_range = DynamicRange{};
    for (std::int64_t k : table_.rows().columns[build_key_].i64) {
      options_.publish_build_range->Observe(k);
    }
  }
  probe_->Open();
  probe_pos_ = 0;
  probe_done_ = false;
  probe_batch_.Clear();
}

bool HashJoinOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  const std::size_t probe_width = probe_->OutputTypes().size();
  const Batch& build_data = table_.rows();
  const std::size_t build_width = build_data.columns.size();
  while (out->num_rows() < kBatchSize) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      if (probe_done_ || !probe_->Next(&probe_batch_)) {
        probe_done_ = true;
        break;
      }
      probe_pos_ = 0;
      continue;
    }
    const std::size_t i = probe_pos_++;
    const std::int64_t key = probe_batch_.columns[probe_key_].i64[i];
    table_.ForEachMatch(key, [&](std::size_t b) {
      for (std::size_t c = 0; c < probe_width; ++c) {
        out->columns[c].AppendFrom(probe_batch_.columns[c], i);
      }
      for (std::size_t c = 0; c < build_width; ++c) {
        out->columns[probe_width + c].AppendFrom(build_data.columns[c], b);
      }
      if (options_.append_build_rowid_column) {
        out->columns[probe_width + build_width].i64.push_back(
            static_cast<std::int64_t>(build_data.row_ids[b]));
      }
      out->row_ids.push_back(probe_batch_.row_ids[i]);
    });
  }
  return out->num_rows() > 0;
}

void HashJoinOperator::Close() {
  probe_->Close();
  table_.Reset({});
}

}  // namespace patchindex
