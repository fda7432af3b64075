#ifndef PATCHINDEX_EXEC_EXPRESSION_H_
#define PATCHINDEX_EXEC_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"

namespace patchindex {

/// Scalar expression over the columns of a batch. Comparisons and boolean
/// connectives produce INT64 0/1 vectors, which SelectOperator interprets
/// as selection masks; arithmetic promotes to DOUBLE when either operand
/// is DOUBLE. Rich enough for the TPC-H subset (Q3/Q7/Q12), the
/// update-handling queries, and the predicates the SQL binder emits.
class Expr {
 public:
  enum class Kind {
    kColumn,
    kConst,
    kCmp,
    kAnd,
    kOr,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kCast,
    kParam,
  };
  enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

  virtual ~Expr() = default;
  virtual Kind kind() const = 0;
  virtual ColumnType OutputType(const std::vector<ColumnType>& input) const = 0;
  virtual ColumnVector Eval(const Batch& batch) const = 0;

  /// Human-readable rendering — `(#0 = 42)`, `(#1 AND (NOT #2))` — used by
  /// EXPLAIN output and the SQL front-end tests. Column references render
  /// as `#<input index>`; parameters as `?<ordinal+1>`.
  virtual std::string ToString() const = 0;

  /// For kColumn expressions: the referenced input column; -1 otherwise.
  /// Lets the optimizer trace column provenance through projections.
  virtual int column_index() const { return -1; }
};

using ExprPtr = std::shared_ptr<Expr>;

/// References input column `idx`.
ExprPtr Col(std::size_t idx);
ExprPtr ConstInt(std::int64_t v);
ExprPtr ConstDouble(double v);
ExprPtr ConstString(std::string v);
ExprPtr Cmp(Expr::CmpOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);

/// x IN (v1, v2, ...) as a disjunction of equalities.
ExprPtr InList(ExprPtr x, const std::vector<Value>& values);

/// Converts `e` to `to` (INT64 <-> DOUBLE; casting to the expression's own
/// type is the identity). The SQL binder inserts casts to reconcile mixed
/// INT64/DOUBLE comparisons and assignments; string casts are not
/// supported and must be rejected at binding time.
ExprPtr Cast(ExprPtr e, ColumnType to);

/// A `?` placeholder of a prepared statement: evaluates to the current
/// value of slot `ordinal` in the shared `slots` vector, coerced to
/// `type` (INT64 widens to DOUBLE). The runner writes the slots before
/// each execution, so one bound plan serves every parameter binding.
ExprPtr ParamRef(std::shared_ptr<const std::vector<Value>> slots,
                 std::size_t ordinal, ColumnType type);

/// One conjunct `#column op value` of a selection predicate, normalized so
/// the column is on the left; `value` is an INT64 literal or the current
/// value of an INT64 `?` parameter.
struct ColumnBound {
  std::size_t column;
  Expr::CmpOp op;
  std::int64_t value;
};

/// Appends every top-level AND conjunct of `predicate` that compares an
/// input column with an INT64 literal or bound INT64 parameter using `=`,
/// `<`, `<=`, `>` or `>=` (either operand order). Every other conjunct —
/// OR, NOT, `!=`, casts, arithmetic, column against column — is skipped,
/// so the collected bounds are implied by the predicate but may be
/// weaker. Parameters are read at call time: call it after binding them.
void CollectColumnBounds(const Expr& predicate,
                         std::vector<ColumnBound>* out);

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_EXPRESSION_H_
