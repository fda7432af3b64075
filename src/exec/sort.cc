#include "exec/sort.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/sort_merge.h"
#include "obs/mem_tracker.h"

namespace patchindex {

SortOperator::SortOperator(OperatorPtr child, std::vector<SortKeySpec> keys,
                           std::size_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  PIDX_CHECK(!keys_.empty());
}

void SortOperator::Open() {
  child_->Open();
  data_.Reset(child_->OutputTypes());
  obs::OpMemory mem("Sort", mem_stats_);
  Batch in;
  while (child_->Next(&in)) {
    mem.Add(ApproxBytes(in));
    data_.AppendRows(in, 0, in.num_rows());
  }
  child_->Close();

  mem.Add(data_.num_rows() * sizeof(std::size_t));  // the permutation
  order_ = SortedPermutation(data_, keys_, limit_);
  pos_ = 0;
}

bool SortOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  const std::size_t n = std::min(kBatchSize, order_.size() - pos_);
  out->AppendGather(data_, std::span(order_).subspan(pos_, n));
  pos_ += n;
  return n > 0;
}

void SortOperator::Close() {
  data_.Clear();
  order_.clear();
}

}  // namespace patchindex
