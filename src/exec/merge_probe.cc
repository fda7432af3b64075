#include "exec/merge_probe.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/sort_merge.h"

namespace patchindex {

MergeProbeOperator::MergeProbeOperator(OperatorPtr fact, const Batch* x,
                                       std::size_t x_key,
                                       std::size_t fact_key)
    : fact_(std::move(fact)), x_(x), x_key_(x_key), fact_key_(fact_key) {
  output_types_ = x_->types();
  PIDX_CHECK(output_types_.at(x_key_) == ColumnType::kInt64);
  const std::vector<ColumnType> fact_types = fact_->OutputTypes();
  PIDX_CHECK(fact_types.at(fact_key_) == ColumnType::kInt64);
  output_types_.insert(output_types_.end(), fact_types.begin(),
                       fact_types.end());
}

void MergeProbeOperator::Open() {
  fact_->Open();
  fact_batch_.Clear();
  loaded_ = false;
}

bool MergeProbeOperator::LoadFactBatch() {
  do {
    if (!fact_->Next(&fact_batch_)) return false;
  } while (fact_batch_.num_rows() == 0);
  const std::vector<std::int64_t>* keys = &fact_batch_.columns[fact_key_].i64;
  if (!std::is_sorted(keys->begin(), keys->end())) {
    SortBatchRows(&fact_batch_, {{fact_key_, true}});
    keys = &fact_batch_.columns[fact_key_].i64;  // the sort rebuilt it
  }
  const std::vector<std::int64_t>& x_keys = x_->columns[x_key_].i64;
  const auto lo =
      std::lower_bound(x_keys.begin(), x_keys.end(), keys->front());
  const auto hi = std::upper_bound(lo, x_keys.end(), keys->back());
  xi_ = static_cast<std::size_t>(lo - x_keys.begin());
  x_end_ = static_cast<std::size_t>(hi - x_keys.begin());
  fi_ = 0;
  in_run_ = false;
  return true;
}

void MergeProbeOperator::Walk() {
  x_sel_.clear();
  fact_sel_.clear();
  const std::int64_t* xk = x_->columns[x_key_].i64.data();
  const std::int64_t* fk = fact_batch_.columns[fact_key_].i64.data();
  const std::size_t nf = fact_batch_.num_rows();
  while (x_sel_.size() < kBatchSize) {
    if (in_run_) {
      // Cross X row xi_ with the fact run [fi_, run_end_), from rj_ on.
      const std::size_t take =
          std::min(run_end_ - rj_, kBatchSize - x_sel_.size());
      x_sel_.insert(x_sel_.end(), take, xi_);
      for (std::size_t t = 0; t < take; ++t) fact_sel_.push_back(rj_++);
      if (rj_ < run_end_) break;  // the chunk is full mid-run
      // The next X row may carry the same key and cross the run again.
      ++xi_;
      if (xi_ < x_end_ && xk[xi_] == fk[fi_]) {
        rj_ = fi_;
        continue;
      }
      in_run_ = false;
      fi_ = run_end_;
      continue;
    }
    if (xi_ >= x_end_ || fi_ >= nf) break;
    if (xk[xi_] < fk[fi_]) {
      ++xi_;
    } else if (xk[xi_] > fk[fi_]) {
      ++fi_;
    } else {
      run_end_ = fi_ + 1;
      while (run_end_ < nf && fk[run_end_] == fk[fi_]) ++run_end_;
      rj_ = fi_;
      in_run_ = true;
    }
  }
}

bool MergeProbeOperator::Next(Batch* out) {
  out->Reset(output_types_);
  for (;;) {
    if (loaded_) {
      Walk();
      if (!x_sel_.empty()) break;
      loaded_ = false;
    }
    if (!LoadFactBatch()) return false;
    loaded_ = true;
  }
  const std::size_t xw = x_->columns.size();
  for (std::size_t c = 0; c < xw; ++c) {
    out->columns[c].AppendGather(x_->columns[c], x_sel_);
  }
  for (std::size_t c = 0; c < fact_batch_.columns.size(); ++c) {
    out->columns[xw + c].AppendGather(fact_batch_.columns[c], fact_sel_);
  }
  AppendGathered(&out->row_ids, x_->row_ids, x_sel_);
  return true;
}

void MergeProbeOperator::Close() {
  fact_->Close();
  fact_batch_.Clear();
  loaded_ = false;
}

}  // namespace patchindex
