#include "exec/select.h"

#include <algorithm>
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
    const auto kept = static_cast<std::size_t>(
        std::count_if(mask.i64.begin(), mask.i64.end(),
                      [](std::int64_t m) { return m != 0; }));
    if (kept > 0 && kept == in.num_rows()) {
      // Every row passes (a range predicate over a block inside the
      // range): hand the batch on instead of copying it row by row.
      *out = std::move(in);
      return true;
    }
    for (std::size_t i = 0; i < in.num_rows(); ++i) {
      if (mask.i64[i] != 0) out->AppendRowFrom(in, i);
    }
  }
  return true;
}

}  // namespace patchindex
