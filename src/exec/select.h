#ifndef PATCHINDEX_EXEC_SELECT_H_
#define PATCHINDEX_EXEC_SELECT_H_

#include <vector>

#include "exec/expression.h"
#include "exec/operator.h"

namespace patchindex {

/// Generic predicate selection: keeps tuples whose predicate evaluates to
/// a non-zero INT64. The mask becomes a selection (the passing rows'
/// indices), and the survivors are gathered column by column.
class SelectOperator : public Operator {
 public:
  SelectOperator(OperatorPtr child, ExprPtr predicate);

  std::vector<ColumnType> OutputTypes() const override {
    return child_->OutputTypes();
  }
  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  std::vector<std::size_t> selection_;  // reused across batches
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_SELECT_H_
