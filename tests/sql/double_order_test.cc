// DOUBLE comparisons and sorts under the one total order (CompareDoubles):
// NaN sorts above +inf and equals only NaN, −0.0 equals +0.0. Driven
// through SQL so the column-vs-constant kernel, the general comparison
// path and ORDER BY (full and top-N) are all exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace patchindex {
namespace {

class DoubleOrderTest : public ::testing::Test {
 protected:
  DoubleOrderTest() : session_(engine_.CreateSession()) {
    Run("CREATE TABLE t (k INT64, d DOUBLE)");
    Run("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), "
        "(5, 5.0), (6, 6.0), (7, 0.0)");
    Run("UPDATE t SET d = (d - d) / (d - d) WHERE k = 2");       // NaN
    Run("UPDATE t SET d = 1.0 / (d - d) WHERE k = 4");           // +inf
    Run("UPDATE t SET d = (0.0 - 1.0) / (d - d) WHERE k = 5");   // -inf
    Run("UPDATE t SET d = (0.0 - d) * 0.0 WHERE k = 6");         // -0.0
  }

  QueryResult Run(const std::string& sql) {
    Result<QueryResult> r = session_.Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Column 0 (the INT64 key) of `sql`'s answer, in answer order.
  std::vector<std::int64_t> Keys(const std::string& sql) {
    QueryResult r = Run(sql);
    if (r.rows.columns.empty()) return {};
    return r.rows.columns[0].i64;
  }

  using V = std::vector<std::int64_t>;

  Engine engine_;
  Session session_;
};

TEST_F(DoubleOrderTest, TheSpecialValuesAreStored) {
  const QueryResult r = Run("SELECT k, d FROM t ORDER BY k");
  ASSERT_EQ(r.rows.num_rows(), 7u);
  const std::vector<double>& d = r.rows.columns[1].f64;
  EXPECT_TRUE(std::isnan(d[1]));
  EXPECT_EQ(d[3], std::numeric_limits<double>::infinity());
  EXPECT_EQ(d[4], -std::numeric_limits<double>::infinity());
  EXPECT_EQ(d[5], 0.0);
  EXPECT_TRUE(std::signbit(d[5]));
  EXPECT_FALSE(std::signbit(d[6]));
}

TEST_F(DoubleOrderTest, WhereAgainstAConstant) {
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d = 1.0 ORDER BY k"), V({1}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d < 3.0 ORDER BY k"),
            V({1, 5, 6, 7}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d >= 3.0 ORDER BY k"), V({2, 3, 4}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d > 1.0 ORDER BY k"), V({2, 3, 4}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d <= 0.0 ORDER BY k"), V({5, 6, 7}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d != 3.0 ORDER BY k"),
            V({1, 2, 4, 5, 6, 7}));
  // −0.0 equals +0.0.
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d = 0.0 ORDER BY k"), V({6, 7}));
  // Constant on the left: the operator flips.
  EXPECT_EQ(Keys("SELECT k FROM t WHERE 3.0 <= d ORDER BY k"), V({2, 3, 4}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE 3.0 > d ORDER BY k"),
            V({1, 5, 6, 7}));
}

TEST_F(DoubleOrderTest, WhereThroughTheGeneralComparison) {
  // An arithmetic operand is not the column-vs-constant shape.
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d + 0.0 = 1.0 ORDER BY k"), V({1}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d + 0.0 < 3.0 ORDER BY k"),
            V({1, 5, 6, 7}));
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d + 0.0 >= 3.0 ORDER BY k"),
            V({2, 3, 4}));
  // (d - d) / (d - d) is NaN on every row; NaN equals only NaN.
  EXPECT_EQ(Keys("SELECT k FROM t WHERE d = (d - d) / (d - d) ORDER BY k"),
            V({2}));
}

TEST_F(DoubleOrderTest, OrderByPlacesNanAboveInfinity) {
  EXPECT_EQ(Keys("SELECT k FROM t ORDER BY d, k"),
            V({5, 6, 7, 1, 3, 4, 2}));
  EXPECT_EQ(Keys("SELECT k FROM t ORDER BY d DESC, k"),
            V({2, 4, 3, 1, 6, 7, 5}));
  // Top-N (partial sort) agrees with the full sort.
  EXPECT_EQ(Keys("SELECT k FROM t ORDER BY d, k LIMIT 3"), V({5, 6, 7}));
  EXPECT_EQ(Keys("SELECT k FROM t ORDER BY d DESC, k LIMIT 2"), V({2, 4}));
}

}  // namespace
}  // namespace patchindex
