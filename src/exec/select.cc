#include "exec/select.h"

#include <utility>

#include "common/check.h"

namespace patchindex {

SelectOperator::SelectOperator(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

bool SelectOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  Batch in;
  while (out->num_rows() == 0) {
    if (!child_->Next(&in)) return false;
    const ColumnVector mask = predicate_->Eval(in);
    PIDX_DCHECK(mask.type == ColumnType::kInt64);
    // The selection: indices of the passing rows, written branch-free.
    const std::size_t n = in.num_rows();
    selection_.resize(n);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      selection_[kept] = i;
      kept += mask.i64[i] != 0;
    }
    if (kept > 0 && kept == n) {
      // Every row passes (a range predicate over a block inside the
      // range): hand the batch on instead of copying it.
      *out = std::move(in);
      return true;
    }
    out->AppendGather(in, std::span(selection_.data(), kept));
  }
  return true;
}

}  // namespace patchindex
