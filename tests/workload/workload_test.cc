#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "patchindex/discovery.h"
#include "workload/generator.h"
#include "workload/publicbi.h"
#include "workload/tpch.h"

namespace patchindex {
namespace {

TEST(GeneratorTest, NucExceptionRateMatchesConfig) {
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.25;
  Table t = GenerateNucTable(cfg);
  ASSERT_EQ(t.num_rows(), cfg.num_rows);
  const auto patches = DiscoverNucPatches(t.column(1));
  const double measured =
      static_cast<double>(patches.size()) / cfg.num_rows;
  EXPECT_NEAR(measured, 0.25, 0.01);
}

TEST(GeneratorTest, NucZeroExceptionsIsPerfectlyUnique) {
  GeneratorConfig cfg;
  cfg.num_rows = 5'000;
  cfg.exception_rate = 0.0;
  Table t = GenerateNucTable(cfg);
  EXPECT_TRUE(DiscoverNucPatches(t.column(1)).empty());
}

TEST(GeneratorTest, NucExceptionsSpreadOverConfiguredDomain) {
  GeneratorConfig cfg;
  cfg.num_rows = 10'000;
  cfg.exception_rate = 0.5;
  cfg.num_exception_values = 50;
  Table t = GenerateNucTable(cfg);
  std::unordered_map<std::int64_t, int> counts;
  for (auto v : t.column(1).i64_data()) {
    if (v < 1'000'000'000) ++counts[v];
  }
  EXPECT_EQ(counts.size(), 50u);
  // "equally distributed": each duplicated value appears ~100 times.
  for (const auto& [v, c] : counts) EXPECT_NEAR(c, 100, 1);
}

TEST(GeneratorTest, NscExceptionRateApproximatelyMatches) {
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.3;
  Table t = GenerateNscTable(cfg);
  const auto d = DiscoverNscPatches(t.column(1));
  const double measured = static_cast<double>(d.patches.size()) / cfg.num_rows;
  // The LSS can absorb some random exceptions, so measured <= configured.
  EXPECT_LE(measured, 0.3 + 0.01);
  EXPECT_GE(measured, 0.2);
}

TEST(GeneratorTest, DeterministicInSeed) {
  GeneratorConfig cfg;
  cfg.num_rows = 1'000;
  cfg.exception_rate = 0.2;
  Table a = GenerateNucTable(cfg);
  Table b = GenerateNucTable(cfg);
  EXPECT_EQ(a.column(1).i64_data(), b.column(1).i64_data());
}

TEST(GeneratorTest, PartitionedSplitsNearlyEvenly) {
  GeneratorConfig cfg;
  cfg.num_rows = 10'000;
  cfg.exception_rate = 0.1;
  auto pt = GenerateNscPartitioned(cfg, 4);
  ASSERT_EQ(pt->num_partitions(), 4u);
  EXPECT_EQ(pt->num_rows(), cfg.num_rows);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_NEAR(static_cast<double>(pt->partition(p).num_rows()), 2500.0, 1.0);
  }
}

TEST(TpchTest, GeneratesConsistentTables) {
  TpchConfig cfg;
  cfg.num_orders = 500;
  TpchDatabase db = GenerateTpch(cfg);
  EXPECT_EQ(db.nation->num_rows(), 25u);
  EXPECT_EQ(db.orders->num_rows(), 500u);
  EXPECT_GE(db.lineitem->num_rows(), 500u);
  EXPECT_LE(db.lineitem->num_rows(), 3500u);
  // orders sorted by orderkey; lineitem clustered by orderkey.
  const std::vector<std::int64_t> orderkeys = db.orders->column(0).i64_data();
  const std::vector<std::int64_t> linekeys = db.lineitem->column(0).i64_data();
  EXPECT_TRUE(std::is_sorted(orderkeys.begin(), orderkeys.end()));
  EXPECT_TRUE(std::is_sorted(linekeys.begin(), linekeys.end()));
  // Foreign keys resolve.
  for (auto k : db.lineitem->column(0).i64_data()) {
    ASSERT_GE(k, 0);
    ASSERT_LE(k, db.max_orderkey);
  }
}

TEST(TpchTest, PerturbationIntroducesRequestedExceptionRate) {
  TpchConfig cfg;
  cfg.num_orders = 1'000;
  TpchDatabase db = GenerateTpch(cfg);
  PerturbLineitemOrder(db.lineitem.get(), 0.10, 99);
  const auto d = DiscoverNscPatches(db.lineitem->column(0));
  const double e =
      static_cast<double>(d.patches.size()) / db.lineitem->num_rows();
  EXPECT_GT(e, 0.05);
  EXPECT_LE(e, 0.11);
}

TEST(TpchTest, PerturbationZeroIsNoop) {
  TpchConfig cfg;
  cfg.num_orders = 200;
  TpchDatabase db = GenerateTpch(cfg);
  const auto before = db.lineitem->column(0).i64_data();
  PerturbLineitemOrder(db.lineitem.get(), 0.0, 1);
  EXPECT_EQ(db.lineitem->column(0).i64_data(), before);
}

TEST(TpchTest, Rf1ProducesAscendingNewOrderKeys) {
  TpchConfig cfg;
  cfg.num_orders = 100;
  TpchDatabase db = GenerateTpch(cfg);
  RefreshSet rf = MakeRf1(db, 10, 3);
  EXPECT_EQ(rf.orders_rows.size(), 10u);
  EXPECT_GE(rf.lineitem_rows.size(), 10u);
  std::int64_t prev = db.max_orderkey;
  for (const Row& r : rf.orders_rows) {
    EXPECT_GT(r.cells[0].AsInt64(), prev);
    prev = r.cells[0].AsInt64();
  }
}

TEST(TpchTest, Rf2FindsAllRowsOfSampledOrders) {
  TpchConfig cfg;
  cfg.num_orders = 300;
  TpchDatabase db = GenerateTpch(cfg);
  DeleteSet del = MakeRf2(db, 20, 5);
  EXPECT_EQ(del.orders_rows.size(), 20u);
  EXPECT_GE(del.lineitem_rows.size(), 20u);
  EXPECT_TRUE(std::is_sorted(del.orders_rows.begin(), del.orders_rows.end()));
  EXPECT_TRUE(
      std::is_sorted(del.lineitem_rows.begin(), del.lineitem_rows.end()));
}

TEST(PublicBiTest, DatasetsMatchFigure1Shape) {
  auto datasets = Figure1Datasets();
  ASSERT_EQ(datasets.size(), 3u);
  EXPECT_EQ(datasets[0].name, "USCensus_1");
  EXPECT_EQ(datasets[0].columns.size(), 15u);  // 15 NSC columns
  int above60 = 0;
  for (const auto& c : datasets[0].columns) {
    EXPECT_EQ(c.constraint, ConstraintKind::kNearlySorted);
    if (c.match_fraction > 0.6) ++above60;
  }
  EXPECT_EQ(above60, 9);  // "nine columns match with over 60%"
}

TEST(PublicBiTest, SynthesizedColumnsHitTargetFraction) {
  for (const auto& ds : Figure1Datasets()) {
    for (const auto& spec : ds.columns) {
      const double measured = MeasureMatchFraction(spec, 5'000, 17);
      EXPECT_NEAR(measured, spec.match_fraction, 0.08)
          << ds.name << "/" << spec.name;
    }
  }
}

TEST(PublicBiTest, HistogramBucketsSumToColumnCount) {
  for (const auto& ds : Figure1Datasets()) {
    auto hist = MatchHistogram(ds, 2'000, 23);
    int total = 0;
    for (int b : hist) total += b;
    EXPECT_EQ(static_cast<std::size_t>(total), ds.columns.size());
  }
}

}  // namespace
}  // namespace patchindex
