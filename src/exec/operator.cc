#include "exec/operator.h"

#include <algorithm>

#include "common/check.h"
#include "obs/mem_tracker.h"

namespace patchindex {

Batch Collect(Operator& op) {
  op.Open();
  Batch all;
  all.Reset(op.OutputTypes());
  // Result materialization is charged to the thread's query tracker (if
  // any), as the executor's own drains are.
  obs::OpMemory mem("Materialize");
  Batch in;
  while (op.Next(&in)) {
    mem.Add(ApproxBytes(in));
    all.AppendRows(in, 0, in.num_rows());
  }
  op.Close();
  return all;
}

std::uint64_t CountRows(Operator& op) {
  op.Open();
  std::uint64_t total = 0;
  Batch in;
  while (op.Next(&in)) total += in.num_rows();
  op.Close();
  return total;
}

bool InMemorySource::Next(Batch* out) {
  out->Reset(OutputTypes());
  const std::size_t end = std::min(data_.num_rows(), pos_ + kBatchSize);
  out->AppendRows(data_, pos_, end);
  const bool any = end > pos_;
  pos_ = end;
  return any;
}

UnionOperator::UnionOperator(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  PIDX_CHECK(!children_.empty());
  const auto types = children_[0]->OutputTypes();
  for (const auto& c : children_) PIDX_CHECK(c->OutputTypes() == types);
}

void UnionOperator::Open() {
  current_ = 0;
  opened_ = false;
}

bool UnionOperator::Next(Batch* out) {
  while (current_ < children_.size()) {
    if (!opened_) {
      children_[current_]->Open();
      opened_ = true;
    }
    if (children_[current_]->Next(out)) return true;
    children_[current_]->Close();
    ++current_;
    opened_ = false;
  }
  out->Reset(OutputTypes());
  return false;
}

void UnionOperator::Close() {
  for (auto& c : children_) c->Close();
}

}  // namespace patchindex
