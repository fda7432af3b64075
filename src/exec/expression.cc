#include "exec/expression.h"

#include <utility>

#include "common/check.h"

namespace patchindex {

namespace {

const char* CmpOpName(Expr::CmpOp op) {
  switch (op) {
    case Expr::CmpOp::kEq:
      return "=";
    case Expr::CmpOp::kNe:
      return "!=";
    case Expr::CmpOp::kLt:
      return "<";
    case Expr::CmpOp::kLe:
      return "<=";
    case Expr::CmpOp::kGt:
      return ">";
    case Expr::CmpOp::kGe:
      return ">=";
  }
  return "?";
}

/// `n` copies of `v`, filled by type rather than one boxed Value at a time.
ColumnVector Broadcast(const Value& v, std::size_t n) {
  ColumnVector out(v.type());
  switch (v.type()) {
    case ColumnType::kInt64:
      out.i64.assign(n, v.AsInt64());
      break;
    case ColumnType::kDouble:
      out.f64.assign(n, v.AsDouble());
      break;
    case ColumnType::kString:
      out.str.assign(n, v.AsString());
      break;
  }
  return out;
}

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(std::size_t idx) : idx_(idx) {}
  Kind kind() const override { return Kind::kColumn; }
  ColumnType OutputType(const std::vector<ColumnType>& input) const override {
    PIDX_CHECK(idx_ < input.size());
    return input[idx_];
  }
  ColumnVector Eval(const Batch& batch) const override {
    PIDX_CHECK(idx_ < batch.columns.size());
    // A copy: the operand of arithmetic, casts and column-vs-column
    // comparisons. Comparisons against a constant never come here; they
    // read the batch column in place (CmpExpr).
    return batch.columns[idx_];
  }
  std::string ToString() const override { return "#" + std::to_string(idx_); }
  int column_index() const override { return static_cast<int>(idx_); }

 private:
  std::size_t idx_;
};

class ConstExpr : public Expr {
 public:
  explicit ConstExpr(Value v) : v_(std::move(v)) {}
  Kind kind() const override { return Kind::kConst; }
  ColumnType OutputType(const std::vector<ColumnType>&) const override {
    return v_.type();
  }
  ColumnVector Eval(const Batch& batch) const override {
    return Broadcast(v_, batch.num_rows());
  }
  std::string ToString() const override {
    if (v_.type() == ColumnType::kString) return "'" + v_.AsString() + "'";
    return v_.ToString();
  }
  const Value& value() const { return v_; }

 private:
  Value v_;
};

/// Three-way compares of one cell type: INT64 and STRING by value,
/// DOUBLE by CompareDoubles' total order.
int Compare3(std::int64_t a, std::int64_t b) { return (a > b) - (a < b); }
int Compare3(double a, double b) { return CompareDoubles(a, b); }
int Compare3(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return (c > 0) - (c < 0);
}

/// out[i] = (a[i] op b[i]) for every i, where b[i] is `b(i)`: one loop per
/// operator, so the operator switch runs once per batch, not per row.
template <typename T, typename Rhs>
void CompareLoop(Expr::CmpOp op, const std::vector<T>& a, Rhs b,
                 std::vector<std::int64_t>* out) {
  const std::size_t n = a.size();
  out->resize(n);
  std::int64_t* o = out->data();
  const T* in = a.data();
  const auto loop = [&](auto pred) {
    for (std::size_t i = 0; i < n; ++i) o[i] = pred(Compare3(in[i], b(i)));
  };
  switch (op) {
    case Expr::CmpOp::kEq:
      loop([](int c) { return c == 0; });
      break;
    case Expr::CmpOp::kNe:
      loop([](int c) { return c != 0; });
      break;
    case Expr::CmpOp::kLt:
      loop([](int c) { return c < 0; });
      break;
    case Expr::CmpOp::kLe:
      loop([](int c) { return c <= 0; });
      break;
    case Expr::CmpOp::kGt:
      loop([](int c) { return c > 0; });
      break;
    case Expr::CmpOp::kGe:
      loop([](int c) { return c >= 0; });
      break;
  }
}

/// `a op b` rewritten as `b op' a`.
Expr::CmpOp Mirror(Expr::CmpOp op) {
  switch (op) {
    case Expr::CmpOp::kLt:
      return Expr::CmpOp::kGt;
    case Expr::CmpOp::kLe:
      return Expr::CmpOp::kGe;
    case Expr::CmpOp::kGt:
      return Expr::CmpOp::kLt;
    case Expr::CmpOp::kGe:
      return Expr::CmpOp::kLe;
    default:
      return op;
  }
}

/// A comparison. `#c op constant` and `constant op #c` (normalized to the
/// first form) run the column-vs-constant kernel: the batch column is read
/// in place and the mask written in one typed loop. Every other shape
/// evaluates both operands to vectors and compares them pairwise.
class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {
    if (l_->kind() == Kind::kColumn && r_->kind() == Kind::kConst) {
      kernel_column_ = l_->column_index();
      kernel_op_ = op_;
      kernel_const_ = &static_cast<const ConstExpr&>(*r_).value();
    } else if (l_->kind() == Kind::kConst && r_->kind() == Kind::kColumn) {
      kernel_column_ = r_->column_index();
      kernel_op_ = Mirror(op_);
      kernel_const_ = &static_cast<const ConstExpr&>(*l_).value();
    }
  }
  Kind kind() const override { return Kind::kCmp; }
  ColumnType OutputType(const std::vector<ColumnType>&) const override {
    return ColumnType::kInt64;
  }
  ColumnVector Eval(const Batch& batch) const override {
    ColumnVector out(ColumnType::kInt64);
    if (kernel_const_ != nullptr) {
      PIDX_CHECK(static_cast<std::size_t>(kernel_column_) <
                 batch.columns.size());
      const ColumnVector& col = batch.columns[kernel_column_];
      PIDX_CHECK_MSG(col.type == kernel_const_->type(),
                     "comparison operand type mismatch");
      switch (col.type) {
        case ColumnType::kInt64: {
          const std::int64_t c = kernel_const_->AsInt64();
          CompareLoop(kernel_op_, col.i64, [c](std::size_t) { return c; },
                      &out.i64);
          break;
        }
        case ColumnType::kDouble: {
          const double c = kernel_const_->AsDouble();
          CompareLoop(kernel_op_, col.f64, [c](std::size_t) { return c; },
                      &out.i64);
          break;
        }
        case ColumnType::kString: {
          const std::string& c = kernel_const_->AsString();
          CompareLoop(kernel_op_, col.str,
                      [&c](std::size_t) -> const std::string& { return c; },
                      &out.i64);
          break;
        }
      }
      return out;
    }
    const ColumnVector lv = l_->Eval(batch);
    const ColumnVector rv = r_->Eval(batch);
    PIDX_CHECK_MSG(lv.type == rv.type, "comparison operand type mismatch");
    switch (lv.type) {
      case ColumnType::kInt64:
        CompareLoop(op_, lv.i64, [&rv](std::size_t i) { return rv.i64[i]; },
                    &out.i64);
        break;
      case ColumnType::kDouble:
        CompareLoop(op_, lv.f64, [&rv](std::size_t i) { return rv.f64[i]; },
                    &out.i64);
        break;
      case ColumnType::kString:
        CompareLoop(op_, lv.str,
                    [&rv](std::size_t i) -> const std::string& {
                      return rv.str[i];
                    },
                    &out.i64);
        break;
    }
    return out;
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + " " + CmpOpName(op_) + " " +
           r_->ToString() + ")";
  }
  CmpOp op() const { return op_; }
  const Expr& left() const { return *l_; }
  const Expr& right() const { return *r_; }

 private:
  CmpOp op_;
  ExprPtr l_, r_;
  // The column-vs-constant kernel's operands; kernel_const_ points into
  // the ConstExpr operand (kept alive by l_/r_) and is null for every
  // other shape.
  int kernel_column_ = -1;
  CmpOp kernel_op_ = CmpOp::kEq;
  const Value* kernel_const_ = nullptr;
};

enum class BoolOp { kAnd, kOr, kNot };

class BoolExpr : public Expr {
 public:
  BoolExpr(BoolOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}
  Kind kind() const override {
    switch (op_) {
      case BoolOp::kAnd:
        return Kind::kAnd;
      case BoolOp::kOr:
        return Kind::kOr;
      case BoolOp::kNot:
        return Kind::kNot;
    }
    return Kind::kNot;
  }
  ColumnType OutputType(const std::vector<ColumnType>&) const override {
    return ColumnType::kInt64;
  }
  ColumnVector Eval(const Batch& batch) const override {
    ColumnVector lv = l_->Eval(batch);
    ColumnVector out(ColumnType::kInt64);
    const std::size_t n = lv.size();
    out.i64.reserve(n);
    if (op_ == BoolOp::kNot) {
      for (std::size_t i = 0; i < n; ++i) out.i64.push_back(lv.i64[i] == 0);
      return out;
    }
    ColumnVector rv = r_->Eval(batch);
    if (op_ == BoolOp::kAnd) {
      for (std::size_t i = 0; i < n; ++i) {
        out.i64.push_back((lv.i64[i] != 0) && (rv.i64[i] != 0));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out.i64.push_back((lv.i64[i] != 0) || (rv.i64[i] != 0));
      }
    }
    return out;
  }
  std::string ToString() const override {
    switch (op_) {
      case BoolOp::kAnd:
        return "(" + l_->ToString() + " AND " + r_->ToString() + ")";
      case BoolOp::kOr:
        return "(" + l_->ToString() + " OR " + r_->ToString() + ")";
      case BoolOp::kNot:
        return "(NOT " + l_->ToString() + ")";
    }
    return "?";
  }
  const Expr& left() const { return *l_; }
  const Expr& right() const { return *r_; }

 private:
  BoolOp op_;
  ExprPtr l_, r_;
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}
  Kind kind() const override {
    switch (op_) {
      case ArithOp::kAdd:
        return Kind::kAdd;
      case ArithOp::kSub:
        return Kind::kSub;
      case ArithOp::kMul:
        return Kind::kMul;
      case ArithOp::kDiv:
        return Kind::kDiv;
    }
    return Kind::kAdd;
  }
  ColumnType OutputType(const std::vector<ColumnType>& input) const override {
    const ColumnType lt = l_->OutputType(input);
    const ColumnType rt = r_->OutputType(input);
    PIDX_CHECK(lt != ColumnType::kString && rt != ColumnType::kString);
    return (lt == ColumnType::kDouble || rt == ColumnType::kDouble)
               ? ColumnType::kDouble
               : ColumnType::kInt64;
  }
  ColumnVector Eval(const Batch& batch) const override {
    ColumnVector lv = l_->Eval(batch);
    ColumnVector rv = r_->Eval(batch);
    const std::size_t n = lv.size();
    const bool dbl =
        lv.type == ColumnType::kDouble || rv.type == ColumnType::kDouble;
    auto lval = [&](std::size_t i) {
      return lv.type == ColumnType::kDouble ? lv.f64[i]
                                            : static_cast<double>(lv.i64[i]);
    };
    auto rval = [&](std::size_t i) {
      return rv.type == ColumnType::kDouble ? rv.f64[i]
                                            : static_cast<double>(rv.i64[i]);
    };
    if (dbl) {
      ColumnVector out(ColumnType::kDouble);
      out.f64.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double a = lval(i), b = rval(i);
        switch (op_) {
          case ArithOp::kAdd:
            out.f64.push_back(a + b);
            break;
          case ArithOp::kSub:
            out.f64.push_back(a - b);
            break;
          case ArithOp::kMul:
            out.f64.push_back(a * b);
            break;
          case ArithOp::kDiv:
            out.f64.push_back(a / b);
            break;
        }
      }
      return out;
    }
    ColumnVector out(ColumnType::kInt64);
    out.i64.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t a = lv.i64[i], b = rv.i64[i];
      switch (op_) {
        case ArithOp::kAdd:
          out.i64.push_back(a + b);
          break;
        case ArithOp::kSub:
          out.i64.push_back(a - b);
          break;
        case ArithOp::kMul:
          out.i64.push_back(a * b);
          break;
        case ArithOp::kDiv:
          out.i64.push_back(b == 0 ? 0 : a / b);
          break;
      }
    }
    return out;
  }
  std::string ToString() const override {
    const char* op = "?";
    switch (op_) {
      case ArithOp::kAdd:
        op = "+";
        break;
      case ArithOp::kSub:
        op = "-";
        break;
      case ArithOp::kMul:
        op = "*";
        break;
      case ArithOp::kDiv:
        op = "/";
        break;
    }
    return "(" + l_->ToString() + " " + op + " " + r_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr l_, r_;
};

/// INT64 <-> DOUBLE conversion. Casting to the operand's own type copies
/// it through; string casts are a binder-time error and trip the check.
class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr e, ColumnType to) : e_(std::move(e)), to_(to) {
    PIDX_CHECK_MSG(to_ != ColumnType::kString,
                   "casts to string are not supported");
  }
  Kind kind() const override { return Kind::kCast; }
  ColumnType OutputType(const std::vector<ColumnType>&) const override {
    return to_;
  }
  ColumnVector Eval(const Batch& batch) const override {
    ColumnVector in = e_->Eval(batch);
    if (in.type == to_) return in;
    PIDX_CHECK_MSG(in.type != ColumnType::kString,
                   "casts from string are not supported");
    ColumnVector out(to_);
    const std::size_t n = in.size();
    if (to_ == ColumnType::kDouble) {
      out.f64.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.f64.push_back(static_cast<double>(in.i64[i]));
      }
    } else {
      out.i64.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.i64.push_back(static_cast<std::int64_t>(in.f64[i]));
      }
    }
    return out;
  }
  std::string ToString() const override {
    return std::string(ColumnTypeName(to_)) + "(" + e_->ToString() + ")";
  }

 private:
  ExprPtr e_;
  ColumnType to_;
};

/// A prepared-statement `?` slot; see ParamRef() in the header.
class ParamExpr : public Expr {
 public:
  ParamExpr(std::shared_ptr<const std::vector<Value>> slots,
            std::size_t ordinal, ColumnType type)
      : slots_(std::move(slots)), ordinal_(ordinal), type_(type) {}
  Kind kind() const override { return Kind::kParam; }
  ColumnType OutputType(const std::vector<ColumnType>&) const override {
    return type_;
  }
  ColumnVector Eval(const Batch& batch) const override {
    PIDX_CHECK_MSG(ordinal_ < slots_->size(),
                   "parameter slot not bound before execution");
    Value v = (*slots_)[ordinal_];
    if (v.type() == ColumnType::kInt64 && type_ == ColumnType::kDouble) {
      v = Value(static_cast<double>(v.AsInt64()));
    }
    PIDX_CHECK_MSG(v.type() == type_, "parameter value type mismatch");
    return Broadcast(v, batch.num_rows());
  }
  std::string ToString() const override {
    return "?" + std::to_string(ordinal_ + 1);
  }
  /// The bound slot value, or nullptr when the slot is not bound yet.
  const Value* bound_value() const {
    return ordinal_ < slots_->size() ? &(*slots_)[ordinal_] : nullptr;
  }

 private:
  std::shared_ptr<const std::vector<Value>> slots_;
  std::size_t ordinal_;
  ColumnType type_;
};

/// The INT64 value of a literal or bound parameter operand; false for
/// anything else.
bool Int64Operand(const Expr& e, std::int64_t* out) {
  const Value* v = nullptr;
  if (e.kind() == Expr::Kind::kConst) {
    v = &static_cast<const ConstExpr&>(e).value();
  } else if (e.kind() == Expr::Kind::kParam &&
             e.OutputType({}) == ColumnType::kInt64) {
    v = static_cast<const ParamExpr&>(e).bound_value();
  }
  if (v == nullptr || v->type() != ColumnType::kInt64) return false;
  *out = v->AsInt64();
  return true;
}

}  // namespace

void CollectColumnBounds(const Expr& predicate,
                         std::vector<ColumnBound>* out) {
  if (predicate.kind() == Expr::Kind::kAnd) {
    const auto& conj = static_cast<const BoolExpr&>(predicate);
    CollectColumnBounds(conj.left(), out);
    CollectColumnBounds(conj.right(), out);
    return;
  }
  if (predicate.kind() != Expr::Kind::kCmp) return;
  const auto& cmp = static_cast<const CmpExpr&>(predicate);
  if (cmp.op() == Expr::CmpOp::kNe) return;
  std::int64_t value = 0;
  if (cmp.left().kind() == Expr::Kind::kColumn &&
      Int64Operand(cmp.right(), &value)) {
    out->push_back({static_cast<std::size_t>(cmp.left().column_index()),
                    cmp.op(), value});
  } else if (cmp.right().kind() == Expr::Kind::kColumn &&
             Int64Operand(cmp.left(), &value)) {
    out->push_back({static_cast<std::size_t>(cmp.right().column_index()),
                    Mirror(cmp.op()), value});
  }
}

ExprPtr Col(std::size_t idx) { return std::make_shared<ColumnExpr>(idx); }
ExprPtr ConstInt(std::int64_t v) {
  return std::make_shared<ConstExpr>(Value(v));
}
ExprPtr ConstDouble(double v) { return std::make_shared<ConstExpr>(Value(v)); }
ExprPtr ConstString(std::string v) {
  return std::make_shared<ConstExpr>(Value(std::move(v)));
}
ExprPtr Cmp(Expr::CmpOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<CmpExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Cmp(Expr::CmpOp::kGe, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(l), std::move(r));
}
ExprPtr Not(ExprPtr e) {
  return std::make_shared<BoolExpr>(BoolOp::kNot, std::move(e), nullptr);
}
ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}

ExprPtr Cast(ExprPtr e, ColumnType to) {
  return std::make_shared<CastExpr>(std::move(e), to);
}

ExprPtr ParamRef(std::shared_ptr<const std::vector<Value>> slots,
                 std::size_t ordinal, ColumnType type) {
  return std::make_shared<ParamExpr>(std::move(slots), ordinal, type);
}

ExprPtr InList(ExprPtr x, const std::vector<Value>& values) {
  PIDX_CHECK(!values.empty());
  ExprPtr acc;
  for (const Value& v : values) {
    ExprPtr c = Eq(x, std::make_shared<ConstExpr>(v));
    acc = acc ? Or(std::move(acc), std::move(c)) : std::move(c);
  }
  return acc;
}

}  // namespace patchindex
