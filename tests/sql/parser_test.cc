#include "sql/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace patchindex::sql {
namespace {

Statement Parse(std::string_view sql) {
  Result<Statement> stmt = ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt.value_or({});
}

std::string ParseError(std::string_view sql) {
  Result<Statement> stmt = ParseStatement(sql);
  EXPECT_FALSE(stmt.ok()) << "expected a parse error for: " << sql;
  return stmt.ok() ? "" : stmt.status().message();
}

TEST(ParserTest, SelectShape) {
  const Statement stmt = Parse(
      "SELECT DISTINCT a, t.b AS x, count(*) FROM t JOIN u ON t.id = u.id "
      "WHERE a > 1 AND b = 'z' GROUP BY a ORDER BY x DESC, 1 LIMIT 10;");
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  const SelectStatement& sel = *stmt.select;
  EXPECT_TRUE(sel.distinct);
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[0].expr->ToString(), "a");
  EXPECT_EQ(sel.items[1].expr->ToString(), "t.b");
  EXPECT_EQ(sel.items[1].alias, "x");
  EXPECT_EQ(sel.items[2].expr->ToString(), "count(*)");
  EXPECT_EQ(sel.from.table, "t");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].table.table, "u");
  EXPECT_EQ(sel.joins[0].left_key->ToString(), "t.id");
  EXPECT_EQ(sel.joins[0].right_key->ToString(), "u.id");
  EXPECT_EQ(sel.where->ToString(), "((a > 1) AND (b = 'z'))");
  ASSERT_EQ(sel.group_by.size(), 1u);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_EQ(sel.order_by[0].expr->ToString(), "x");
  EXPECT_FALSE(sel.order_by[0].ascending);
  EXPECT_EQ(sel.order_by[1].expr->ToString(), "1");
  EXPECT_TRUE(sel.order_by[1].ascending);
  EXPECT_EQ(sel.limit, 10);
}

TEST(ParserTest, ExpressionPrecedence) {
  const Statement stmt =
      Parse("SELECT * FROM t WHERE a + b * 2 > 3 OR NOT c = 1 AND d < 5");
  // * binds over +, comparisons over NOT, AND over OR.
  EXPECT_EQ(stmt.select->where->ToString(),
            "(((a + (b * 2)) > 3) OR ((NOT (c = 1)) AND (d < 5)))");
}

TEST(ParserTest, InListAndNegation) {
  const Statement stmt =
      Parse("SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (-4, x)");
  EXPECT_EQ(stmt.select->where->ToString(),
            "(a IN (1, 2, 3) AND (NOT b IN (-4, x)))");
}

TEST(ParserTest, ParamsAreNumberedInOrder) {
  const Statement stmt =
      Parse("SELECT * FROM t WHERE a = ? AND b < ? ORDER BY a LIMIT 5");
  EXPECT_EQ(stmt.num_params, 2u);
  EXPECT_EQ(stmt.select->where->ToString(), "((a = ?1) AND (b < ?2))");
}

TEST(ParserTest, InsertForms) {
  const Statement plain =
      Parse("INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')");
  ASSERT_EQ(plain.kind, Statement::Kind::kInsert);
  EXPECT_EQ(plain.insert->table, "t");
  EXPECT_TRUE(plain.insert->columns.empty());
  ASSERT_EQ(plain.insert->rows.size(), 2u);
  EXPECT_EQ(plain.insert->rows[0].size(), 3u);

  const Statement with_cols = Parse("INSERT INTO t (b, a) VALUES (?, ?)");
  ASSERT_EQ(with_cols.insert->columns.size(), 2u);
  EXPECT_EQ(with_cols.insert->columns[0], "b");
  EXPECT_EQ(with_cols.num_params, 2u);
}

TEST(ParserTest, UpdateAndDelete) {
  const Statement upd =
      Parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 7");
  ASSERT_EQ(upd.kind, Statement::Kind::kUpdate);
  ASSERT_EQ(upd.update->sets.size(), 2u);
  EXPECT_EQ(upd.update->sets[0].column, "a");
  EXPECT_EQ(upd.update->sets[0].value->ToString(), "(a + 1)");
  EXPECT_EQ(upd.update->where->ToString(), "(id = 7)");

  const Statement del = Parse("DELETE FROM t");
  ASSERT_EQ(del.kind, Statement::Kind::kDelete);
  EXPECT_EQ(del.del->table, "t");
  EXPECT_EQ(del.del->where, nullptr);
}

TEST(ParserTest, ErrorsCarryPositions) {
  EXPECT_NE(ParseError("SELECT FROM t").find("line 1, column 8"),
            std::string::npos);
  EXPECT_NE(ParseError("SELECT a FROM t WHERE").find("expected an expression"),
            std::string::npos);
  EXPECT_NE(ParseError("SELECT a\nFROM t WHERE ORDER")
                .find("line 2, column 14"),
            std::string::npos);
  EXPECT_NE(ParseError("INSERT INTO t VALUES 1").find("expected '('"),
            std::string::npos);
  EXPECT_NE(ParseError("SELECT a FROM t LIMIT x")
                .find("LIMIT expects a non-negative integer"),
            std::string::npos);
  EXPECT_NE(ParseError("SELECT a FROM t; SELECT b FROM t")
                .find("unexpected trailing input"),
            std::string::npos);
  EXPECT_NE(ParseError("FROB x").find("expected SELECT"), std::string::npos);
}

TEST(ParserTest, JoinOnRequiresColumnEquality) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t JOIN u ON t.a < u.b").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t JOIN u ON 1 = 1").ok());
}

TEST(ParserTest, MultiLineErrorsPointAtTheOffendingToken) {
  // A keyword reached unexpectedly on line 3 reports line 3, not the
  // statement start.
  EXPECT_NE(ParseError("SELECT a,\n       b,\nFROM t")
                .find("line 3, column 1"),
            std::string::npos);
  // The offending literal sits mid-line on line 2.
  EXPECT_NE(ParseError("SELECT a FROM t\nWHERE a = 5x")
                .find("line 2, column 11"),
            std::string::npos);
  // Lexer errors deep into a multi-line statement.
  EXPECT_NE(ParseError("SELECT a\n  FROM t\n  WHERE a = 'oops")
                .find("line 3, column 13"),
            std::string::npos);
  // An unexpected end of input anchors just past the last real token,
  // not past the trailing newline (which would name a phantom line 2).
  const std::string eoi = ParseError("SELECT a FROM t WHERE\n");
  EXPECT_NE(eoi.find("expected an expression, got 'end of input'"),
            std::string::npos);
  EXPECT_NE(eoi.find("line 1, column 22"), std::string::npos);
}

TEST(ParserTest, DeepNestingFailsInsteadOfOverflowingTheStack) {
  const std::string parens = "SELECT " + std::string(10'000, '(') + "a" +
                             std::string(10'000, ')') + " FROM t";
  const std::string deep = ParseError(parens);
  EXPECT_NE(deep.find("nested deeper than 256 levels"), std::string::npos)
      << deep;
  // The select item is level 1 and each '(' one more, so the expression
  // inside the 256th '(' fails; the error points at the 257th.
  EXPECT_NE(deep.find("line 1, column 264"), std::string::npos) << deep;

  std::string minus = "SELECT ";
  for (int i = 0; i < 100'000; ++i) minus += "- ";
  EXPECT_NE(ParseError(minus + "a FROM t").find("nested deeper"),
            std::string::npos);
  std::string nots = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 100'000; ++i) nots += "NOT ";
  EXPECT_NE(ParseError(nots + "a = 1").find("nested deeper"),
            std::string::npos);
  // Left-associative chains build trees as deep as they are long.
  std::string ands = "SELECT a FROM t WHERE a = 1";
  for (int i = 0; i < 100'000; ++i) ands += " AND a = 1";
  EXPECT_NE(ParseError(ands).find("nested deeper"), std::string::npos);
  std::string sums = "SELECT a";
  for (int i = 0; i < 100'000; ++i) sums += " + a * a";
  EXPECT_NE(ParseError(sums + " FROM t").find("nested deeper"),
            std::string::npos);

  // One level inside the limit still parses.
  const std::size_t ok = kMaxExprDepth - 1;
  const Statement shallow = Parse("SELECT " + std::string(ok, '(') + "a" +
                                  std::string(ok, ')') + " FROM t");
  ASSERT_NE(shallow.select, nullptr);
  EXPECT_EQ(shallow.select->items.size(), 1u);
}

TEST(ParserTest, CreateTableWithPartitions) {
  const Statement stmt =
      Parse("CREATE TABLE t (a INT64, b STRING, c DOUBLE) PARTITIONS 4");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt.create->table, "t");
  ASSERT_EQ(stmt.create->columns.size(), 3u);
  EXPECT_EQ(stmt.create->columns[0].name, "a");
  EXPECT_EQ(stmt.create->columns[0].type_name, "int64");
  EXPECT_EQ(stmt.create->columns[2].type_name, "double");
  EXPECT_EQ(stmt.create->partitions, 4);

  const Statement plain = Parse("CREATE TABLE u (x BIGINT)");
  ASSERT_EQ(plain.kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(plain.create->partitions, -1);  // session default

  EXPECT_NE(ParseError("CREATE TABLE t (a INT64) PARTITIONS 0")
                .find("PARTITIONS expects a positive integer"),
            std::string::npos);
  EXPECT_NE(ParseError("CREATE TABLE t ()").find("expected column name"),
            std::string::npos);
}

}  // namespace
}  // namespace patchindex::sql
