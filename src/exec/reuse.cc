#include "exec/reuse.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace patchindex {

ReuseCacheOperator::ReuseCacheOperator(OperatorPtr child, ReuseBufferPtr buffer)
    : child_(std::move(child)), buffer_(std::move(buffer)) {
  PIDX_CHECK(buffer_ != nullptr);
}

void ReuseCacheOperator::Open() {
  child_->Open();
  buffer_->data.Reset(child_->OutputTypes());
  buffer_->complete = false;
}

bool ReuseCacheOperator::Next(Batch* out) {
  if (!child_->Next(out)) {
    buffer_->complete = true;
    return false;
  }
  buffer_->data.AppendRows(*out, 0, out->num_rows());
  return true;
}

void ReuseCacheOperator::Close() {
  if (!buffer_->complete) {
    Batch rest;
    while (child_->Next(&rest)) {
      buffer_->data.AppendRows(rest, 0, rest.num_rows());
    }
    buffer_->complete = true;
  }
  child_->Close();
}

ReuseLoadOperator::ReuseLoadOperator(ReuseBufferPtr buffer,
                                     std::vector<ColumnType> types)
    : buffer_(std::move(buffer)), types_(std::move(types)) {
  PIDX_CHECK(buffer_ != nullptr);
}

void ReuseLoadOperator::Open() {
  PIDX_CHECK_MSG(buffer_->complete,
                 "ReuseLoad opened before its ReuseCache was drained");
  pos_ = 0;
}

bool ReuseLoadOperator::Next(Batch* out) {
  out->Reset(types_);
  const std::size_t end = std::min(buffer_->data.num_rows(), pos_ + kBatchSize);
  out->AppendRows(buffer_->data, pos_, end);
  const bool any = end > pos_;
  pos_ = end;
  return any;
}

}  // namespace patchindex
