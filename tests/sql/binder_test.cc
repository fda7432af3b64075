// Binder tests: golden parse-to-explain round trips (the explain text is
// the observable shape of the bound plan), binding error messages, and
// PatchIndex rewrites firing on SQL-originated plans.

#include "sql/binder.h"

#include <gtest/gtest.h>

#include <memory>

#include "engine/engine.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : session_(engine_.CreateSession()) {
    auto orders = std::make_unique<Table>(
        Schema({{"id", ColumnType::kInt64},
                {"customer", ColumnType::kInt64},
                {"total", ColumnType::kDouble},
                {"status", ColumnType::kString}}));
    for (std::int64_t i = 0; i < 100; ++i) {
      orders->AppendRow(Row{{Value(i), Value(i % 10),
                             Value(static_cast<double>(i) * 1.5),
                             Value(i % 2 == 0 ? "open" : "done")}});
    }
    EXPECT_TRUE(engine_.catalog().AddTable("orders", std::move(orders)).ok());
    auto customers = std::make_unique<Table>(Schema(
        {{"id", ColumnType::kInt64}, {"name", ColumnType::kString}}));
    for (std::int64_t i = 0; i < 10; ++i) {
      customers->AppendRow(Row{{Value(i), Value("c" + std::to_string(i))}});
    }
    EXPECT_TRUE(
        engine_.catalog().AddTable("customers", std::move(customers)).ok());
  }

  std::string Explain(const std::string& sql) {
    Result<std::string> plan = session_.Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value_or("");
  }

  std::string BindError(const std::string& sql) {
    Result<std::string> plan = session_.Explain(sql);
    EXPECT_FALSE(plan.ok()) << "expected a binding error for: " << sql;
    return plan.ok() ? "" : plan.status().message();
  }

  Engine engine_;
  Session session_;
};

TEST_F(BinderTest, GoldenSimpleFilter) {
  // The scan reads only {id, customer, total}; customer is #1 there.
  EXPECT_EQ(Explain("SELECT id, total FROM orders WHERE customer = 3"),
            "Project(#0, #2)\n"
            "  Select((#1 = 3), sel=0.10)\n"
            "    Scan(3 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenIdentityProjectionElided) {
  // The select list equals the pruned scan output, so no Project node.
  EXPECT_EQ(Explain("SELECT id, customer FROM orders WHERE id < 50"),
            "Select((#0 < 50), sel=0.30)\n"
            "  Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenDistinctKeepsSelectChain) {
  // DISTINCT folds the projection into the Distinct node: the select
  // chain below stays intact (the kPatchDistinct pattern).
  EXPECT_EQ(Explain("SELECT DISTINCT customer FROM orders WHERE id < 50"),
            "Distinct(1 cols)\n"
            "  Select((#0 < 50), sel=0.30)\n"
            "    Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenOrderBySortsBelowProjection) {
  // ORDER BY a non-selected column: the sort sits below the projection.
  EXPECT_EQ(Explain("SELECT id FROM orders ORDER BY total DESC LIMIT 5"),
            "Project(#0)\n"
            "  Sort(1 keys, limit=5)\n"
            "    Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenJoinWithPushdown) {
  // Single-table conjuncts push below the join, one per side.
  EXPECT_EQ(
      Explain("SELECT orders.id, customers.name FROM orders "
              "JOIN customers ON orders.customer = customers.id "
              "WHERE orders.id < 10 AND customers.name != 'c9'"),
      "Project(#0, #3)\n"
      "  Join(keys 1=0)\n"
      "    Select((#0 < 10), sel=0.30)\n"
      "      Scan(2 cols, 100 rows)\n"
      "    Select((#1 != 'c9'), sel=0.50)\n"
      "      Scan(2 cols, 10 rows)\n");
}

TEST_F(BinderTest, GoldenGroupByAggregate) {
  EXPECT_EQ(
      Explain("SELECT customer, COUNT(*), SUM(total) FROM orders "
              "GROUP BY customer"),
      "Aggregate(groups=1, aggs=2)\n"
      "  Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenGlobalAggregate) {
  EXPECT_EQ(Explain("SELECT COUNT(*) FROM orders"),
            "Project(#1)\n"
            "  Aggregate(groups=1, aggs=1)\n"
            "    Project(0, #0)\n"
            "      Scan(1 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenAvgExpandsToSumOverCount) {
  // Both operands cast to DOUBLE: AVG can never integer-divide.
  EXPECT_EQ(Explain("SELECT customer, AVG(total) FROM orders "
                    "GROUP BY customer"),
            "Project(#0, (DOUBLE(#1) / DOUBLE(#2)))\n"
            "  Aggregate(groups=1, aggs=2)\n"
            "    Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenPostLimitWithoutOrderBy) {
  EXPECT_EQ(Explain("SELECT id FROM orders LIMIT 7"),
            "Limit(7)\n"
            "  Scan(1 cols, 100 rows)\n");
}

TEST_F(BinderTest, GoldenDmlPlans) {
  EXPECT_EQ(Explain("INSERT INTO customers VALUES (10, 'c10')"),
            "Insert(table='customers', rows=1)\n");
  // The SET target is DOUBLE, so the literal folds to a DOUBLE constant.
  EXPECT_EQ(Explain("UPDATE orders SET total = total * 2 WHERE id = 1"),
            "Update(table='orders', set=[#2 := (#2 * 2.000000)])\n"
            "  Select((#0 = 1), sel=0.10)\n"
            "    Scan(4 cols, 100 rows)\n");
  EXPECT_EQ(Explain("DELETE FROM orders WHERE status = 'done'"),
            "Delete(table='orders')\n"
            "  Select((#3 = 'done'), sel=0.10)\n"
            "    Scan(4 cols, 100 rows)\n");
}

TEST_F(BinderTest, TypeCoercionIntToDouble) {
  // `total > 100` compares DOUBLE with an INT literal: the binder folds
  // the literal to a DOUBLE constant.
  EXPECT_EQ(Explain("SELECT id FROM orders WHERE total > 100"),
            "Project(#0)\n"
            "  Select((#1 > 100.000000), sel=0.30)\n"
            "    Scan(2 cols, 100 rows)\n");
  // A DOUBLE column cast against an INT64 one uses an explicit cast.
  EXPECT_EQ(Explain("SELECT id FROM orders WHERE total > id"),
            "Project(#0)\n"
            "  Select((#1 > DOUBLE(#0)), sel=0.30)\n"
            "    Scan(2 cols, 100 rows)\n");
}

TEST_F(BinderTest, ErrorMessages) {
  EXPECT_NE(BindError("SELECT id FROM nope").find("unknown table 'nope'"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT nope FROM orders")
                .find("unknown column 'nope' at line 1, column 8"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT id FROM orders JOIN customers ON "
                      "orders.customer = customers.id")
                .find("ambiguous column 'id'"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT id FROM orders WHERE status > 5")
                .find("cannot compare STRING with INT64"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT id FROM orders WHERE total")
                .find("boolean (INT64) predicate"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT status, COUNT(*) FROM orders GROUP BY customer")
                .find("must appear in GROUP BY"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT SUM(status) FROM orders")
                .find("numeric column"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT orders.id FROM orders JOIN customers ON "
                      "orders.status = customers.name")
                .find("join keys must be INT64"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT o.id FROM orders JOIN orders ON "
                      "orders.id = orders.id")
                .find("duplicate table name/alias"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT COUNT(*) FROM orders WHERE COUNT(*) > 1")
                .find("aggregate function in WHERE"),
            std::string::npos);
  EXPECT_NE(BindError("SELECT id FROM orders WHERE ? = ?")
                .find("cannot infer the type of parameter"),
            std::string::npos);
  EXPECT_NE(BindError("INSERT INTO customers VALUES (1)")
                .find("expected 2"),
            std::string::npos);
  EXPECT_NE(BindError("INSERT INTO customers VALUES ('x', 'y')")
                .find("cannot insert STRING into INT64"),
            std::string::npos);
  EXPECT_NE(BindError("UPDATE customers SET name = 3 WHERE id = 1")
                .find("cannot assign INT64 to STRING"),
            std::string::npos);
  EXPECT_NE(BindError("UPDATE customers SET name = 'a', name = 'b'")
                .find("SET twice"),
            std::string::npos);
}

TEST_F(BinderTest, AuditedErrorsCarryPositions) {
  // Golden messages for the binder error paths that historically lacked
  // a source position — every parser/binder error now ends in
  // "line L, column C" (runtime parameter-binding errors, which have no
  // source text, are the one exemption).
  ASSERT_TRUE(
      engine_.catalog().CreateTable("empty", Schema(std::vector<Field>{}))
          .ok());
  EXPECT_EQ(BindError("SELECT * FROM empty"),
            "table 'empty' has no columns at line 1, column 15");
  EXPECT_EQ(BindError("INSERT INTO customers VALUES (1)"),
            "INSERT row has 1 values, expected 2 at line 1, column 31");
  EXPECT_EQ(BindError("INSERT INTO customers (id) VALUES (1)"),
            "INSERT column list must mention every column of 'customers' "
            "exactly once (no DEFAULT values) at line 1, column 13");
  EXPECT_EQ(
      BindError("INSERT INTO customers (id, nope) VALUES (1, 2)"),
      "unknown column 'nope' in INSERT column list at line 1, column 28");
  EXPECT_EQ(
      BindError("INSERT INTO customers (id, id) VALUES (1, 2)"),
      "duplicate column 'id' in INSERT column list at line 1, column 28");
  EXPECT_EQ(BindError("SELECT id + 1 AS x FROM orders ORDER BY x, total"),
            "ORDER BY cannot mix computed select items with columns that "
            "are not in the select list, at line 1, column 44");
  EXPECT_EQ(BindError("SELECT o.id FROM orders JOIN orders ON "
                      "orders.id = orders.id"),
            "duplicate table name/alias 'orders' at line 1, column 30 "
            "(alias one of the occurrences)");
  // Positions track the true line in multi-line statements.
  EXPECT_EQ(BindError("SELECT id\nFROM orders\nWHERE nope = 1"),
            "unknown column 'nope' at line 3, column 7");
}

TEST_F(BinderTest, PatchRewritesFireOnSqlPlans) {
  // NUC distinct.
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.05;
  engine_.catalog().AddTable(
      "nuc", std::make_unique<Table>(GenerateNucTable(cfg)));
  ASSERT_TRUE(
      session_.CreatePatchIndex("nuc", 1, ConstraintKind::kNearlyUnique)
          .ok());
  EXPECT_NE(Explain("SELECT DISTINCT val FROM nuc").find("PatchDistinct"),
            std::string::npos);
  EXPECT_NE(Explain("SELECT DISTINCT val FROM nuc WHERE key < 10000")
                .find("PatchDistinct"),
            std::string::npos);

  // NSC sort.
  engine_.catalog().AddTable(
      "nsc", std::make_unique<Table>(GenerateNscTable(cfg)));
  ASSERT_TRUE(
      session_.CreatePatchIndex("nsc", 1, ConstraintKind::kNearlySorted)
          .ok());
  EXPECT_NE(Explain("SELECT val FROM nsc ORDER BY val").find("PatchSort"),
            std::string::npos);

  // NSC join: `dim.id` is physically sorted and carries a zero-exception
  // NSC index, which the binder turns into the scan sortedness annotation
  // the join rewrite requires.
  Table dim(Schema({{"id", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 20'000; ++i) dim.AppendRow(Row{{Value(i)}});
  engine_.catalog().AddTable("dim", std::make_unique<Table>(std::move(dim)));
  ASSERT_TRUE(
      session_.CreatePatchIndex("dim", 0, ConstraintKind::kNearlySorted)
          .ok());
  const std::string plan = Explain(
      "SELECT dim.id, nsc.key FROM dim JOIN nsc ON dim.id = nsc.val");
  EXPECT_NE(plan.find("PatchJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("sorted"), std::string::npos) << plan;
}

TEST_F(BinderTest, NucAnnotationOnSqlJoins) {
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.02;
  engine_.catalog().AddTable(
      "facts", std::make_unique<Table>(GenerateNucTable(cfg)));
  ASSERT_TRUE(
      session_.CreatePatchIndex("facts", 1, ConstraintKind::kNearlyUnique)
          .ok());
  // A NUC-indexed join key gets the unique-build annotation.
  EXPECT_NE(Explain("SELECT orders.id FROM orders "
                    "JOIN facts ON orders.id = facts.val")
                .find("[NUC key]"),
            std::string::npos);
}

}  // namespace
}  // namespace patchindex
