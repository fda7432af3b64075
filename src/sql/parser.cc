#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

namespace patchindex::sql {

namespace {

bool IsReserved(const Token& t) {
  static const char* kReserved[] = {
      "select", "distinct", "from",  "where",  "group", "by",    "order",
      "asc",    "desc",     "limit", "join",   "inner", "on",    "and",
      "or",     "not",      "in",    "as",     "insert", "into", "values",
      "update", "set",      "delete"};
  for (const char* kw : kReserved) {
    if (t.Is(kw)) return true;
  }
  return false;
}

bool IsAggregateName(const std::string& lowered) {
  return lowered == "count" || lowered == "sum" || lowered == "min" ||
         lowered == "max" || lowered == "avg";
}

/// Recursive-descent parser. Errors are sticky: the first failure records
/// `error_` and every production above unwinds with a null result.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> Parse() {
    Statement stmt;
    if (Cur().Is("explain")) {
      stmt.explain = true;
      Advance();
      if (Cur().Is("analyze")) {
        stmt.analyze = true;
        Advance();
      }
      if (Cur().Is("explain")) {
        Fail("EXPLAIN cannot be nested", Cur());
        return error_;
      }
    }
    const Token& t = Cur();
    if (t.Is("select")) {
      stmt.kind = Statement::Kind::kSelect;
      stmt.select = ParseSelect();
    } else if (t.Is("insert")) {
      stmt.kind = Statement::Kind::kInsert;
      stmt.insert = ParseInsert();
    } else if (t.Is("update")) {
      stmt.kind = Statement::Kind::kUpdate;
      stmt.update = ParseUpdate();
    } else if (t.Is("delete")) {
      stmt.kind = Statement::Kind::kDelete;
      stmt.del = ParseDelete();
    } else if (t.Is("create")) {
      stmt.kind = Statement::Kind::kCreateTable;
      stmt.create = ParseCreateTable();
    } else {
      Fail("expected SELECT, INSERT, UPDATE, DELETE or CREATE", t);
    }
    if (error_.ok()) {
      if (Cur().kind == TokenKind::kSemicolon) Advance();
      if (Cur().kind != TokenKind::kEnd) {
        Fail("unexpected trailing input", Cur());
      }
    }
    if (!error_.ok()) return error_;
    stmt.num_params = num_params_;
    stmt.param_locs = std::move(param_locs_);
    return stmt;
  }

 private:
  // ----------------------------------------------------------- statements

  std::shared_ptr<SelectStatement> ParseSelect() {
    auto sel = std::make_shared<SelectStatement>();
    sel->loc = Cur().loc;
    ExpectKeyword("select");
    if (Cur().Is("distinct")) {
      sel->distinct = true;
      Advance();
    }
    // Select list.
    if (Cur().kind == TokenKind::kStar) {
      SelectItem item;
      item.star = true;
      item.loc = Cur().loc;
      sel->items.push_back(std::move(item));
      Advance();
    } else {
      do {
        SelectItem item;
        item.loc = Cur().loc;
        item.expr = ParseExprTop();
        if (!error_.ok()) return sel;
        if (Cur().Is("as")) {
          Advance();
          item.alias = ExpectIdentifier("alias");
        } else if (Cur().kind == TokenKind::kIdentifier &&
                   !IsReserved(Cur())) {
          item.alias = Cur().text;
          Advance();
        }
        sel->items.push_back(std::move(item));
      } while (Accept(TokenKind::kComma));
    }
    ExpectKeyword("from");
    sel->from = ParseTableClause();
    while (error_.ok() && (Cur().Is("join") || Cur().Is("inner"))) {
      JoinClause join;
      join.loc = Cur().loc;
      if (Cur().Is("inner")) Advance();
      ExpectKeyword("join");
      join.table = ParseTableClause();
      ExpectKeyword("on");
      join.left_key = ParseColumnRef();
      Expect(TokenKind::kEq, "'='");
      join.right_key = ParseColumnRef();
      sel->joins.push_back(std::move(join));
    }
    if (Cur().Is("where")) {
      Advance();
      sel->where = ParseExprTop();
    }
    if (Cur().Is("group")) {
      Advance();
      ExpectKeyword("by");
      do {
        sel->group_by.push_back(ParseColumnRef());
      } while (error_.ok() && Accept(TokenKind::kComma));
    }
    if (Cur().Is("order")) {
      Advance();
      ExpectKeyword("by");
      do {
        OrderItem item;
        item.expr = ParseOrderKey();
        if (Cur().Is("asc")) {
          Advance();
        } else if (Cur().Is("desc")) {
          item.ascending = false;
          Advance();
        }
        sel->order_by.push_back(std::move(item));
      } while (error_.ok() && Accept(TokenKind::kComma));
    }
    if (Cur().Is("limit")) {
      Advance();
      if (Cur().kind != TokenKind::kIntLiteral || Cur().i64 < 0) {
        Fail("LIMIT expects a non-negative integer", Cur());
        return sel;
      }
      sel->limit = Cur().i64;
      Advance();
    }
    return sel;
  }

  std::shared_ptr<InsertStatement> ParseInsert() {
    auto ins = std::make_shared<InsertStatement>();
    ExpectKeyword("insert");
    ExpectKeyword("into");
    ins->table_loc = Cur().loc;
    ins->table = ExpectTableName();
    if (Accept(TokenKind::kLParen)) {
      do {
        ins->column_locs.push_back(Cur().loc);
        ins->columns.push_back(ExpectIdentifier("column name"));
      } while (error_.ok() && Accept(TokenKind::kComma));
      Expect(TokenKind::kRParen, "')'");
    }
    ExpectKeyword("values");
    do {
      Expect(TokenKind::kLParen, "'('");
      std::vector<ParseExprPtr> row;
      do {
        row.push_back(ParseExprTop());
      } while (error_.ok() && Accept(TokenKind::kComma));
      Expect(TokenKind::kRParen, "')'");
      ins->rows.push_back(std::move(row));
    } while (error_.ok() && Accept(TokenKind::kComma));
    return ins;
  }

  std::shared_ptr<UpdateStatement> ParseUpdate() {
    auto upd = std::make_shared<UpdateStatement>();
    ExpectKeyword("update");
    upd->table_loc = Cur().loc;
    upd->table = ExpectTableName();
    ExpectKeyword("set");
    do {
      UpdateStatement::SetClause set;
      set.loc = Cur().loc;
      set.column = ExpectIdentifier("column name");
      Expect(TokenKind::kEq, "'='");
      set.value = ParseExprTop();
      upd->sets.push_back(std::move(set));
    } while (error_.ok() && Accept(TokenKind::kComma));
    if (Cur().Is("where")) {
      Advance();
      upd->where = ParseExprTop();
    }
    return upd;
  }

  std::shared_ptr<CreateTableStatement> ParseCreateTable() {
    auto create = std::make_shared<CreateTableStatement>();
    ExpectKeyword("create");
    ExpectKeyword("table");
    create->table_loc = Cur().loc;
    create->table = ExpectTableName();
    Expect(TokenKind::kLParen, "'('");
    do {
      CreateTableStatement::ColumnDef col;
      col.loc = Cur().loc;
      col.name = ExpectIdentifier("column name");
      col.type_loc = Cur().loc;
      col.type_name = ToLowerAscii(ExpectIdentifier("column type"));
      create->columns.push_back(std::move(col));
    } while (error_.ok() && Accept(TokenKind::kComma));
    Expect(TokenKind::kRParen, "')'");
    if (error_.ok() && Cur().Is("partitions")) {
      Advance();
      create->partitions_loc = Cur().loc;
      if (Cur().kind != TokenKind::kIntLiteral || Cur().i64 < 1) {
        Fail("PARTITIONS expects a positive integer", Cur());
        return create;
      }
      create->partitions = Cur().i64;
      Advance();
    }
    return create;
  }

  std::shared_ptr<DeleteStatement> ParseDelete() {
    auto del = std::make_shared<DeleteStatement>();
    ExpectKeyword("delete");
    ExpectKeyword("from");
    del->table_loc = Cur().loc;
    del->table = ExpectTableName();
    if (Cur().Is("where")) {
      Advance();
      del->where = ParseExprTop();
    }
    return del;
  }

  // ---------------------------------------------------------- expressions

  ParseExprPtr ParseExprTop() {
    return Nested([this] { return ParseOr(); });
  }

  /// Takes one more level of expression nesting. Every cycle of the
  /// grammar (parentheses, call and IN-list arguments through
  /// ParseExprTop, NOT and unary-minus chains) and every operator of a
  /// left-associative chain (each one deepens the tree the binder and
  /// optimizer recurse over) descends here. Past kMaxExprDepth the
  /// statement fails instead of overflowing the stack.
  bool Descend() {
    if (depth_ >= kMaxExprDepth) {
      Fail("expression nested deeper than " + std::to_string(kMaxExprDepth) +
               " levels",
           Cur());
      return false;
    }
    ++depth_;
    return true;
  }

  /// Runs one recursive production a level deeper.
  template <typename Fn>
  ParseExprPtr Nested(Fn parse) {
    if (!Descend()) return std::make_shared<ParseExpr>();
    ParseExprPtr e = parse();
    --depth_;
    return e;
  }

  ParseExprPtr ParseOr() {
    const std::size_t depth = depth_;
    ParseExprPtr left = ParseAnd();
    while (error_.ok() && Cur().Is("or") && Descend()) {
      const SourceLoc loc = Cur().loc;
      Advance();
      left = MakeBinary(ParseExpr::Op::kOr, std::move(left), ParseAnd(), loc);
    }
    depth_ = depth;
    return left;
  }

  ParseExprPtr ParseAnd() {
    const std::size_t depth = depth_;
    ParseExprPtr left = ParseNot();
    while (error_.ok() && Cur().Is("and") && Descend()) {
      const SourceLoc loc = Cur().loc;
      Advance();
      left = MakeBinary(ParseExpr::Op::kAnd, std::move(left), ParseNot(), loc);
    }
    depth_ = depth;
    return left;
  }

  ParseExprPtr ParseNot() {
    if (Cur().Is("not")) {
      const SourceLoc loc = Cur().loc;
      Advance();
      auto e = std::make_shared<ParseExpr>();
      e->kind = ParseExpr::Kind::kUnary;
      e->op = ParseExpr::Op::kNot;
      e->loc = loc;
      e->children.push_back(Nested([this] { return ParseNot(); }));
      return e;
    }
    return ParseComparison();
  }

  ParseExprPtr ParseComparison() {
    ParseExprPtr left = ParseAdditive();
    if (!error_.ok()) return left;
    const Token& t = Cur();
    ParseExpr::Op op;
    switch (t.kind) {
      case TokenKind::kEq:
        op = ParseExpr::Op::kEq;
        break;
      case TokenKind::kNe:
        op = ParseExpr::Op::kNe;
        break;
      case TokenKind::kLt:
        op = ParseExpr::Op::kLt;
        break;
      case TokenKind::kLe:
        op = ParseExpr::Op::kLe;
        break;
      case TokenKind::kGt:
        op = ParseExpr::Op::kGt;
        break;
      case TokenKind::kGe:
        op = ParseExpr::Op::kGe;
        break;
      default: {
        bool negated = false;
        SourceLoc loc = t.loc;
        std::size_t save = pos_;
        if (Cur().Is("not")) {
          negated = true;
          Advance();
        }
        if (!Cur().Is("in")) {
          pos_ = save;  // plain NOT belongs to ParseNot, not to IN
          return left;
        }
        Advance();
        Expect(TokenKind::kLParen, "'('");
        auto in = std::make_shared<ParseExpr>();
        in->kind = ParseExpr::Kind::kInList;
        in->loc = loc;
        in->children.push_back(std::move(left));
        do {
          in->children.push_back(ParseExprTop());
        } while (error_.ok() && Accept(TokenKind::kComma));
        Expect(TokenKind::kRParen, "')'");
        if (!negated) return in;
        auto wrapped = std::make_shared<ParseExpr>();
        wrapped->kind = ParseExpr::Kind::kUnary;
        wrapped->op = ParseExpr::Op::kNot;
        wrapped->loc = loc;
        wrapped->children.push_back(std::move(in));
        return wrapped;
      }
    }
    const SourceLoc loc = t.loc;
    Advance();
    return MakeBinary(op, std::move(left), ParseAdditive(), loc);
  }

  ParseExprPtr ParseAdditive() {
    const std::size_t depth = depth_;
    ParseExprPtr left = ParseMultiplicative();
    while (error_.ok() &&
           (Cur().kind == TokenKind::kPlus ||
            Cur().kind == TokenKind::kMinus) &&
           Descend()) {
      const ParseExpr::Op op = Cur().kind == TokenKind::kPlus
                                   ? ParseExpr::Op::kAdd
                                   : ParseExpr::Op::kSub;
      const SourceLoc loc = Cur().loc;
      Advance();
      left = MakeBinary(op, std::move(left), ParseMultiplicative(), loc);
    }
    depth_ = depth;
    return left;
  }

  ParseExprPtr ParseMultiplicative() {
    const std::size_t depth = depth_;
    ParseExprPtr left = ParseUnary();
    while (error_.ok() &&
           (Cur().kind == TokenKind::kStar ||
            Cur().kind == TokenKind::kSlash) &&
           Descend()) {
      const ParseExpr::Op op = Cur().kind == TokenKind::kStar
                                   ? ParseExpr::Op::kMul
                                   : ParseExpr::Op::kDiv;
      const SourceLoc loc = Cur().loc;
      Advance();
      left = MakeBinary(op, std::move(left), ParseUnary(), loc);
    }
    depth_ = depth;
    return left;
  }

  ParseExprPtr ParseUnary() {
    if (Cur().kind == TokenKind::kMinus) {
      const SourceLoc loc = Cur().loc;
      Advance();
      ParseExprPtr inner = Nested([this] { return ParseUnary(); });
      if (!error_.ok()) return inner;
      // Fold -literal so `-3` is a literal, not a unary expression.
      if (inner->kind == ParseExpr::Kind::kIntLit) {
        inner->i64 = -inner->i64;
        return inner;
      }
      if (inner->kind == ParseExpr::Kind::kDoubleLit) {
        inner->f64 = -inner->f64;
        return inner;
      }
      auto e = std::make_shared<ParseExpr>();
      e->kind = ParseExpr::Kind::kUnary;
      e->op = ParseExpr::Op::kNeg;
      e->loc = loc;
      e->children.push_back(std::move(inner));
      return e;
    }
    return ParsePrimary();
  }

  ParseExprPtr ParsePrimary() {
    const Token& t = Cur();
    auto e = std::make_shared<ParseExpr>();
    e->loc = t.loc;
    switch (t.kind) {
      case TokenKind::kIntLiteral:
        e->kind = ParseExpr::Kind::kIntLit;
        e->i64 = t.i64;
        Advance();
        return e;
      case TokenKind::kDoubleLiteral:
        e->kind = ParseExpr::Kind::kDoubleLit;
        e->f64 = t.f64;
        Advance();
        return e;
      case TokenKind::kStringLiteral:
        e->kind = ParseExpr::Kind::kStringLit;
        e->str = t.text;
        Advance();
        return e;
      case TokenKind::kQuestion:
        e->kind = ParseExpr::Kind::kParam;
        e->param_ordinal = num_params_++;
        param_locs_.push_back(t.loc);
        Advance();
        return e;
      case TokenKind::kLParen: {
        Advance();
        ParseExprPtr inner = ParseExprTop();
        Expect(TokenKind::kRParen, "')'");
        return inner;
      }
      case TokenKind::kIdentifier: {
        if (IsReserved(t)) {
          Fail("unexpected keyword '" + t.text + "'", t);
          return e;
        }
        const std::string lowered = ToLowerAscii(t.text);
        if (IsAggregateName(lowered) && Peek().kind == TokenKind::kLParen) {
          e->kind = ParseExpr::Kind::kCall;
          e->name = lowered;
          Advance();  // name
          Advance();  // (
          if (Cur().kind == TokenKind::kStar) {
            e->star_arg = true;
            Advance();
          } else {
            e->children.push_back(ParseExprTop());
          }
          Expect(TokenKind::kRParen, "')'");
          return e;
        }
        return ParseColumnRef();
      }
      default:
        Fail("expected an expression, got '" +
                 (t.kind == TokenKind::kEnd ? std::string("end of input")
                                            : t.text) +
             "'",
             t);
        return e;
    }
  }

  /// `[qualifier.]name` — a bare column reference.
  ParseExprPtr ParseColumnRef() {
    auto e = std::make_shared<ParseExpr>();
    e->kind = ParseExpr::Kind::kColumn;
    e->loc = Cur().loc;
    e->name = ExpectIdentifier("column name");
    if (error_.ok() && Cur().kind == TokenKind::kDot) {
      Advance();
      e->qualifier = std::move(e->name);
      e->name = ExpectIdentifier("column name");
    }
    return e;
  }

  /// ORDER BY key: a column ref, an ordinal, or an aggregate call (which
  /// the binder matches against the select list).
  ParseExprPtr ParseOrderKey() {
    const Token& t = Cur();
    if (t.kind == TokenKind::kIntLiteral) {
      auto e = std::make_shared<ParseExpr>();
      e->kind = ParseExpr::Kind::kIntLit;
      e->i64 = t.i64;
      e->loc = t.loc;
      Advance();
      return e;
    }
    if (t.kind == TokenKind::kIdentifier && IsAggregateName(ToLowerAscii(t.text)) &&
        Peek().kind == TokenKind::kLParen) {
      return ParsePrimary();
    }
    return ParseColumnRef();
  }

  // -------------------------------------------------------------- helpers

  TableClause ParseTableClause() {
    TableClause clause;
    clause.loc = Cur().loc;
    clause.table = ExpectTableName();
    if (!error_.ok()) return clause;
    if (Cur().Is("as")) {
      Advance();
      clause.alias = ExpectIdentifier("alias");
    } else if (Cur().kind == TokenKind::kIdentifier && !IsReserved(Cur())) {
      clause.alias = Cur().text;
      Advance();
    }
    return clause;
  }

  ParseExprPtr MakeBinary(ParseExpr::Op op, ParseExprPtr l, ParseExprPtr r,
                          SourceLoc loc) {
    auto e = std::make_shared<ParseExpr>();
    e->kind = ParseExpr::Kind::kBinary;
    e->op = op;
    e->loc = loc;
    e->children.push_back(std::move(l));
    e->children.push_back(std::move(r));
    return e;
  }

  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek() const {
    return tokens_[std::min(pos_ + 1, tokens_.size() - 1)];
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool Accept(TokenKind kind) {
    if (!error_.ok() || Cur().kind != kind) return false;
    Advance();
    return true;
  }

  void Expect(TokenKind kind, const char* what) {
    if (!error_.ok()) return;
    if (Cur().kind != kind) {
      Fail(std::string("expected ") + what + ", got '" +
               (Cur().kind == TokenKind::kEnd ? "end of input" : Cur().text) +
               "'",
           Cur());
      return;
    }
    Advance();
  }

  void ExpectKeyword(const char* kw) {
    if (!error_.ok()) return;
    if (!Cur().Is(kw)) {
      std::string upper = kw;
      std::transform(upper.begin(), upper.end(), upper.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                     });
      Fail("expected " + upper + ", got '" +
               (Cur().kind == TokenKind::kEnd ? "end of input" : Cur().text) +
               "'",
           Cur());
      return;
    }
    Advance();
  }

  /// `[schema.]name` — a possibly schema-qualified table name, returned
  /// in dotted form (e.g. "pi_stats.queries"). The only schema today is
  /// the read-only pi_stats system schema; the binder rejects unknown
  /// qualified names.
  std::string ExpectTableName() {
    std::string name = ExpectIdentifier("table name");
    if (error_.ok() && Cur().kind == TokenKind::kDot) {
      Advance();
      name += "." + ExpectIdentifier("table name");
    }
    return name;
  }

  std::string ExpectIdentifier(const char* what) {
    if (!error_.ok()) return "";
    if (Cur().kind != TokenKind::kIdentifier || IsReserved(Cur())) {
      Fail(std::string("expected ") + what + ", got '" +
               (Cur().kind == TokenKind::kEnd ? "end of input" : Cur().text) +
               "'",
           Cur());
      return "";
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  void Fail(const std::string& msg, const Token& at) {
    if (error_.ok()) {
      error_ = Status::InvalidArgument("syntax error at " + at.loc.ToString() +
                                       ": " + msg);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t num_params_ = 0;
  std::size_t depth_ = 0;
  std::vector<SourceLoc> param_locs_;
  Status error_ = Status::OK();
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  return Parser(std::move(tokens).value()).Parse();
}

}  // namespace patchindex::sql
