// Randomized differential tests for block pruning (AnnotateScanPruning).
// Every answer is compared with a reference the test computes itself from
// Table::VisibleCell — never with a run that has pruning switched off —
// across comparison operators, parameter re-binding, conjunct shapes,
// pending PDT deltas on the predicate column, partition and thread counts,
// the three PatchIndex rewrites, DML row finding, and readers pinned on
// old versions while a writer commits.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch_gc.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "optimizer/rewriter.h"
#include "optimizer/scan_pruning.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

using Rows = std::vector<std::vector<std::int64_t>>;
using Match = std::function<bool(std::int64_t key, std::int64_t val)>;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kRows = 20'000;

Schema KvSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

Row KvRow(std::int64_t key, std::int64_t val) {
  return Row{{Value(key), Value(val)}};
}

struct Config {
  std::size_t partitions;
  std::size_t threads;
};

std::string Describe(const Config& c) {
  return "partitions=" + std::to_string(c.partitions) +
         " threads=" + std::to_string(c.threads);
}

const std::vector<Config>& Configs() {
  static const std::vector<Config> configs = {
      {1, 1}, {1, 4}, {4, 1}, {4, 4}};
  return configs;
}

/// One thread runs every pipeline inline; four run on pool workers, with
/// morsels smaller than a partition.
EngineOptions OptionsFor(std::size_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.morsel_rows = 4096;
  options.optimizer.force_patch_rewrites = true;
  return options;
}

/// A (key, val) table with `rows` rows: key 0..rows-1 in load order, so
/// every partition holds ascending keys (rows are dealt round-robin), and
/// val a seeded shuffle of 0..rows-1.
std::unique_ptr<PartitionedTable> MakeKvTable(std::size_t partitions,
                                              std::int64_t rows,
                                              std::uint64_t seed) {
  std::vector<std::int64_t> vals(static_cast<std::size_t>(rows));
  std::iota(vals.begin(), vals.end(), 0);
  Rng rng(seed);
  std::shuffle(vals.begin(), vals.end(), rng.engine());
  auto table = std::make_unique<PartitionedTable>(KvSchema(), partitions);
  for (std::int64_t i = 0; i < rows; ++i) {
    table->AppendRow(KvRow(i, vals[static_cast<std::size_t>(i)]));
  }
  return table;
}

const PartitionedTable* LoadKv(Engine& engine, const std::string& name,
                               std::size_t partitions, std::uint64_t seed) {
  Result<const PartitionedTable*> added = engine.catalog().AddPartitionedTable(
      name, MakeKvTable(partitions, kRows, seed));
  EXPECT_TRUE(added.ok()) << added.status().ToString();
  return added.value();
}

/// The visible (key, val) rows of `table` satisfying `match`, read cell by
/// cell with every pending delta applied. Sorted.
Rows Reference(const PartitionedTable& table, const Match& match) {
  Rows out;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    const Table& part = table.partition(p);
    const RowId visible = part.num_rows() - part.pdt().deletes().size() +
                          part.pdt().inserts().size();
    for (RowId r = 0; r < visible; ++r) {
      const std::int64_t key = part.VisibleCell(r, 0).AsInt64();
      const std::int64_t val = part.VisibleCell(r, 1).AsInt64();
      if (match(key, val)) out.push_back({key, val});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rows Select(Session& session, const std::string& sql,
            std::vector<Value> params = {}) {
  Result<QueryResult> r = session.Sql(sql, std::move(params));
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return {};
  return SortedRows(r.value().rows);
}

std::string AnalyzeText(Session& session, const std::string& sql) {
  Result<QueryResult> r = session.Sql("EXPLAIN ANALYZE " + sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return "";
  std::string text;
  for (const std::string& line : r.value().rows.columns[0].str) {
    text += line + "\n";
  }
  return text;
}

struct Case {
  std::string where;
  Match match;
};

/// Predicates the pass can bound: every comparison operator, either
/// operand order, empty / full / out-of-domain ranges, and a mix with a
/// bound on the shuffled column.
std::vector<Case> PrunableCases() {
  return {
      {"key = 777", [](auto k, auto) { return k == 777; }},
      {"key = -1", [](auto k, auto) { return k == -1; }},
      {"key = 25000", [](auto k, auto) { return k == 25'000; }},
      {"key < 1500", [](auto k, auto) { return k < 1'500; }},
      {"key <= 1500", [](auto k, auto) { return k <= 1'500; }},
      {"key > 18000", [](auto k, auto) { return k > 18'000; }},
      {"key >= 18000", [](auto k, auto) { return k >= 18'000; }},
      {"1000 > key", [](auto k, auto) { return 1'000 > k; }},
      {"1000 <= key AND key < 1200",
       [](auto k, auto) { return 1'000 <= k && k < 1'200; }},
      {"key >= 3000 AND key < 5000",
       [](auto k, auto) { return k >= 3'000 && k < 5'000; }},
      {"key >= 5000 AND key < 3000",
       [](auto k, auto) { return k >= 5'000 && k < 3'000; }},
      {"key >= 4096 AND key < 8192 AND key = 5000",
       [](auto k, auto) { return k == 5'000; }},
      {"key >= 0", [](auto k, auto) { return k >= 0; }},
      {"key <= 19999", [](auto k, auto) { return k <= 19'999; }},
      {"key < 0", [](auto k, auto) { return k < 0; }},
      {"key > 19999", [](auto k, auto) { return k > 19'999; }},
      {"key > 100000", [](auto k, auto) { return k > 100'000; }},
      {"key >= 100 AND val < 5000",
       [](auto k, auto v) { return k >= 100 && v < 5'000; }},
      {"val = 42", [](auto, auto v) { return v == 42; }},
  };
}

/// Predicates that must keep every block: no conjunct is a plain
/// `#col op INT64-value` comparison.
std::vector<Case> UnprunableCases() {
  return {
      {"key < 100 OR key > 19900",
       [](auto k, auto) { return k < 100 || k > 19'900; }},
      {"NOT (key >= 100)", [](auto k, auto) { return !(k >= 100); }},
      {"key != 5", [](auto k, auto) { return k != 5; }},
      {"key < 100.5", [](auto k, auto) { return k <= 100; }},
      {"key < val", [](auto k, auto v) { return k < v; }},
      {"key + 1 < 100", [](auto k, auto) { return k + 1 < 100; }},
  };
}

TEST(ScanPruningTest, EveryOperatorMatchesReference) {
  for (const Config& config : Configs()) {
    SCOPED_TRACE(Describe(config));
    Engine engine(OptionsFor(config.threads));
    Session session = engine.CreateSession();
    const PartitionedTable* t = LoadKv(engine, "t", config.partitions, 7);
    for (const Case& c : PrunableCases()) {
      EXPECT_EQ(Select(session, "SELECT key, val FROM t WHERE " + c.where),
                Reference(*t, c.match))
          << c.where;
    }
    for (const Case& c : UnprunableCases()) {
      const std::string sql = "SELECT key, val FROM t WHERE " + c.where;
      EXPECT_EQ(Select(session, sql), Reference(*t, c.match)) << c.where;
      EXPECT_EQ(AnalyzeText(session, sql).find("blocks="), std::string::npos)
          << c.where;
    }
    // A narrow key range visits only its blocks: 2000 keys span at most
    // three 1024-row blocks per partition.
    const std::string analyzed = AnalyzeText(
        session, "SELECT key, val FROM t WHERE key >= 3000 AND key < 5000");
    const std::size_t total_blocks =
        config.partitions * ((kRows / config.partitions + 1023) / 1024);
    std::smatch blocks;
    ASSERT_TRUE(std::regex_search(analyzed, blocks,
                                  std::regex("blocks=([0-9]+)/([0-9]+),")))
        << analyzed;
    EXPECT_LE(std::stoul(blocks[1]), 3 * config.partitions) << analyzed;
    EXPECT_EQ(std::stoul(blocks[2]), total_blocks) << analyzed;
    // A key outside the domain keeps no block, so the scan reads no row.
    const std::string none =
        AnalyzeText(session, "SELECT key, val FROM t WHERE key = 25000");
    EXPECT_NE(none.find("[rows=0, blocks=0/" + std::to_string(total_blocks)),
              std::string::npos)
        << none;
  }
}

TEST(ScanPruningTest, PreparedStatementRebindsBounds) {
  for (const Config& config : Configs()) {
    SCOPED_TRACE(Describe(config));
    Engine engine(OptionsFor(config.threads));
    Session session = engine.CreateSession();
    const PartitionedTable* t = LoadKv(engine, "t", config.partitions, 11);
    Result<PreparedStatement> range =
        session.Prepare("SELECT key, val FROM t WHERE key >= ? AND key < ?");
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    const std::vector<std::pair<std::int64_t, std::int64_t>> bounds = {
        {0, 100},     {19'000, kMax}, {kMin, 50},   {kMin, kMin},
        {kMax, kMax}, {500, 400},     {-100, -1},   {7'000, 7'001},
        {kMin, kMax}, {12'345, 15'000}};
    for (const auto& [lo, hi] : bounds) {
      Result<QueryResult> r = range.value().Execute({Value(lo), Value(hi)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(SortedRows(r.value().rows),
                Reference(*t, [lo = lo, hi = hi](auto k, auto) {
                  return k >= lo && k < hi;
                }))
          << lo << ".." << hi;
    }
    // The INT64 extremes on the strict operators bound nothing or
    // everything.
    EXPECT_TRUE(
        Select(session, "SELECT key, val FROM t WHERE key > ?", {Value(kMax)})
            .empty());
    EXPECT_TRUE(
        Select(session, "SELECT key, val FROM t WHERE key < ?", {Value(kMin)})
            .empty());
    EXPECT_EQ(
        Select(session, "SELECT key, val FROM t WHERE key <= ?", {Value(kMax)})
            .size(),
        static_cast<std::size_t>(kRows));
    EXPECT_EQ(
        Select(session, "SELECT key, val FROM t WHERE key >= ?", {Value(kMin)})
            .size(),
        static_cast<std::size_t>(kRows));
  }
}

TEST(ScanPruningTest, ConjunctsInOneSelectAndStackedSelects) {
  ThreadPool pool(4);
  ParallelExecOptions parallel;
  parallel.morsel_rows = 2048;
  for (std::size_t partitions : {1, 4}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    std::unique_ptr<PartitionedTable> t = MakeKvTable(partitions, kRows, 3);
    struct PlanCase {
      LogicalPtr plan;
      Match match;
      bool prunes;
    };
    auto scan = [&] { return LScan(*t, {0, 1}); };
    std::vector<PlanCase> cases;
    cases.push_back({LSelect(scan(), And(Ge(Col(0), ConstInt(kMin)),
                                         Lt(Col(0), ConstInt(300)))),
                     [](auto k, auto) { return k < 300; }, true});
    cases.push_back(
        {LSelect(LSelect(scan(), Ge(Col(0), ConstInt(2'000))),
                 Le(Col(0), ConstInt(2'500))),
         [](auto k, auto) { return k >= 2'000 && k <= 2'500; }, true});
    cases.push_back({LSelect(scan(), And(Gt(Col(0), ConstInt(kMax)),
                                         Ge(Col(1), ConstInt(0)))),
                     [](auto, auto) { return false; }, true});
    cases.push_back({LSelect(scan(), Le(ConstInt(kMax), Col(0))),
                     [](auto k, auto) { return k == kMax; }, true});
    cases.push_back({LSelect(scan(), Lt(Col(0), ConstInt(kMin))),
                     [](auto, auto) { return false; }, true});
    cases.push_back(
        {LProject(LSelect(LSelect(scan(), Eq(ConstInt(9'999), Col(0))),
                          Ge(Col(1), ConstInt(kMin))),
                  {Col(0), Col(1)}),
         [](auto k, auto) { return k == 9'999; }, true});
    cases.push_back(
        {LSelect(scan(), Or(Lt(Col(0), ConstInt(10)), Gt(Col(0), ConstInt(
                                                           19'990)))),
         [](auto k, auto) { return k < 10 || k > 19'990; }, false});
    cases.push_back({LSelect(scan(), Lt(Cast(Col(0), ColumnType::kDouble),
                                        ConstDouble(10.5))),
                     [](auto k, auto) { return k < 11; }, false});
    cases.push_back({LSelect(scan(), Le(Col(0), Col(1))),
                     [](auto k, auto v) { return k <= v; }, false});

    auto leaf = [](const LogicalPtr& plan) {
      const LogicalNode* node = plan.get();
      while (node->kind != LogicalNode::Kind::kScan) {
        node = node->children[0].get();
      }
      return node;
    };
    for (const PlanCase& c : cases) {
      AnnotateScanPruning(c.plan.get());
      EXPECT_EQ(leaf(c.plan)->pruning != nullptr, c.prunes);
      const LogicalPtr clone = ClonePlan(c.plan);
      EXPECT_EQ(leaf(clone)->pruning, leaf(c.plan)->pruning);
      const Rows want = Reference(*t, c.match);
      EXPECT_EQ(SortedRows(RunOneWorker(*c.plan)), want);
      EXPECT_EQ(SortedRows(ExecutePlan(*clone, pool, parallel)), want);
    }
  }
}

TEST(ScanPruningTest, ExecuteLeavesTheCallersPlanUnannotated) {
  Engine engine(OptionsFor(4));
  Session session = engine.CreateSession();
  std::unique_ptr<PartitionedTable> t = MakeKvTable(1, kRows, 3);
  const LogicalPtr plan =
      LSelect(LScan(*t, {0, 1}), Lt(Col(0), ConstInt(100)));
  Result<QueryResult> r = session.Execute(plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.num_rows(), 100u);
  EXPECT_EQ(plan->children[0]->pruning, nullptr);
  // A row appended afterwards lands in a block that run would have
  // skipped; executing the kept plan again still finds it.
  t->AppendRow(KvRow(7, -1));
  EXPECT_EQ(RunOneWorker(*plan).num_rows(), 101u);
}

TEST(ScanPruningTest, PendingDeltasOnThePredicateColumn) {
  // Deltas move keys into and out of the ranges below; the reference is
  // read cell by cell with them pending. After the checkpoint, pruning
  // reads the refreshed block summaries, so one worker and the config's
  // pool must still find every row the deltas moved.
  ParallelExecOptions parallel;
  parallel.morsel_rows = 4096;
  for (const Config& config : Configs()) {
    SCOPED_TRACE(Describe(config));
    ThreadPool pool(config.threads);
    std::unique_ptr<PartitionedTable> t =
        MakeKvTable(config.partitions, kRows, 5);
    // Partition 0 moves low keys (blocks the range below would skip)
    // into the range and one in-range key out of it; the last partition
    // gets inserts; a middle partition (or partition 0 again) gets
    // deletes inside the range.
    Table& first = t->partition(0);
    ASSERT_TRUE(first.BufferModify(0, 0, Value(std::int64_t{15'001})).ok());
    ASSERT_TRUE(first.BufferModify(3, 0, Value(std::int64_t{15'999})).ok());
    ASSERT_TRUE(first.BufferModify(first.num_rows() - 1, 0,
                                   Value(std::int64_t{-5}))
                    .ok());
    const RowId in_range = 15'500 / static_cast<RowId>(config.partitions);
    ASSERT_TRUE(first.BufferModify(in_range, 0, Value(std::int64_t{-6})).ok());
    Table& last = t->partition(config.partitions - 1);
    last.BufferInsert(KvRow(15'500, -1));
    last.BufferInsert(KvRow(-3, -2));
    last.BufferInsert(KvRow(kMax, -3));
    Table& middle = t->partition(config.partitions / 2);
    for (RowId r = in_range + 1; r < in_range + 40; r += 3) {
      ASSERT_TRUE(middle.BufferDelete(r).ok());
    }

    struct PlanCase {
      const char* where;
      ExprPtr predicate;
      Match match;
    };
    const std::vector<PlanCase> cases = {
        {"key >= 15000 AND key < 16000",
         And(Ge(Col(0), ConstInt(15'000)), Lt(Col(0), ConstInt(16'000))),
         [](auto k, auto) { return k >= 15'000 && k < 16'000; }},
        {"key = 15001", Eq(Col(0), ConstInt(15'001)),
         [](auto k, auto) { return k == 15'001; }},
        {"key = 15500", Eq(Col(0), ConstInt(15'500)),
         [](auto k, auto) { return k == 15'500; }},
        {"key < 10", Lt(Col(0), ConstInt(10)),
         [](auto k, auto) { return k < 10; }},
        {"key > 19990", Gt(Col(0), ConstInt(19'990)),
         [](auto k, auto) { return k > 19'990; }},
        {"key >= 9223372036854775807", Ge(Col(0), ConstInt(kMax)),
         [](auto k, auto) { return k == kMax; }},
    };
    std::vector<Rows> wants;
    for (const PlanCase& c : cases) wants.push_back(Reference(*t, c.match));
    for (std::size_t p = 0; p < config.partitions; ++p) {
      t->partition(p).Checkpoint();
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const PlanCase& c = cases[i];
      SCOPED_TRACE(c.where);
      const LogicalPtr plan = LSelect(LScan(*t, {0, 1}), c.predicate);
      AnnotateScanPruning(plan.get());
      const Rows& want = wants[i];
      EXPECT_EQ(SortedRows(RunOneWorker(*plan)), want);
      EXPECT_EQ(SortedRows(ExecutePlan(*plan, pool, parallel)), want);
    }
  }
}

TEST(ScanPruningTest, PatchRewritesAcrossExceptionRates) {
  for (double rate : {0.0, 0.05, 1.0}) {
    for (std::size_t threads : {1, 4}) {
      SCOPED_TRACE("e=" + std::to_string(rate) +
                   " threads=" + std::to_string(threads));
      Engine engine(OptionsFor(threads));
      Session session = engine.CreateSession();
      GeneratorConfig gen;
      gen.num_rows = kRows;
      gen.exception_rate = rate;
      ASSERT_TRUE(engine.catalog()
                      .AddTable("u", std::make_unique<Table>(
                                         GenerateNucTable(gen)))
                      .ok());
      ASSERT_TRUE(engine.catalog()
                      .AddTable("s", std::make_unique<Table>(
                                         GenerateNscTable(gen)))
                      .ok());
      auto d = std::make_unique<Table>(KvSchema());
      for (std::int64_t k = 0; k < 5'000; ++k) d->AppendRow(KvRow(k, k));
      ASSERT_TRUE(engine.catalog().AddTable("d", std::move(d)).ok());
      ASSERT_TRUE(
          session.CreatePatchIndex("u", 1, ConstraintKind::kNearlyUnique).ok());
      ASSERT_TRUE(
          session.CreatePatchIndex("s", 1, ConstraintKind::kNearlySorted).ok());
      ASSERT_TRUE(
          session.CreatePatchIndex("d", 0, ConstraintKind::kNearlySorted).ok());
      const PartitionedTable& u = *engine.catalog().FindPartitionedTable("u");
      const PartitionedTable& s = *engine.catalog().FindPartitionedTable("s");

      Rng rng(static_cast<std::uint64_t>(rate * 100) + threads);
      for (int round = 0; round < 4; ++round) {
        const auto lo = static_cast<std::int64_t>(rng.Uniform(0, kRows));
        const std::int64_t hi = lo + static_cast<std::int64_t>(
                                         rng.Uniform(0, kRows / 5));
        const std::string range = " key >= " + std::to_string(lo) +
                                  " AND key < " + std::to_string(hi);
        auto in_range = [lo, hi](std::int64_t k) { return k >= lo && k < hi; };

        const std::string distinct = "SELECT DISTINCT val FROM u WHERE" + range;
        Result<std::string> plan = session.Explain(distinct);
        ASSERT_TRUE(plan.ok());
        EXPECT_NE(plan.value().find("PatchDistinct"), std::string::npos);
        Rows want_distinct;
        for (const auto& row :
             Reference(u, [&](auto k, auto) { return in_range(k); })) {
          want_distinct.push_back({row[1]});
        }
        std::sort(want_distinct.begin(), want_distinct.end());
        want_distinct.erase(
            std::unique(want_distinct.begin(), want_distinct.end()),
            want_distinct.end());
        EXPECT_EQ(Select(session, distinct), want_distinct) << range;

        const std::string sort =
            "SELECT key, val FROM s WHERE" + range + " ORDER BY val";
        plan = session.Explain(sort);
        ASSERT_TRUE(plan.ok());
        EXPECT_NE(plan.value().find("PatchSort"), std::string::npos);
        Result<QueryResult> sorted = session.Sql(sort);
        ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
        const std::vector<std::int64_t>& vals =
            sorted.value().rows.columns[1].i64;
        EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end())) << range;
        EXPECT_EQ(SortedRows(sorted.value().rows),
                  Reference(s, [&](auto k, auto) { return in_range(k); }))
            << range;

        const std::string join =
            "SELECT d.key, COUNT(*) FROM d JOIN s ON d.key = s.val WHERE "
            "s.key >= " + std::to_string(lo) + " AND s.key < " +
            std::to_string(hi) + " GROUP BY d.key";
        plan = session.Explain(join);
        ASSERT_TRUE(plan.ok());
        EXPECT_NE(plan.value().find("PatchJoin"), std::string::npos);
        std::map<std::int64_t, std::int64_t> counts;
        for (const auto& row :
             Reference(s, [&](auto k, auto) { return in_range(k); })) {
          if (row[1] >= 0 && row[1] < 5'000) ++counts[row[1]];
        }
        Rows want_join;
        for (const auto& [key, n] : counts) want_join.push_back({key, n});
        EXPECT_EQ(Select(session, join), want_join) << range;
      }
    }
  }
}

TEST(ScanPruningTest, DmlRowsAffectedMatchReference) {
  for (const Config& config : Configs()) {
    SCOPED_TRACE(Describe(config));
    Engine engine(OptionsFor(config.threads));
    Session session = engine.CreateSession();
    const PartitionedTable* t = LoadKv(engine, "t", config.partitions, 9);
    auto affected = [&](const std::string& sql) -> std::int64_t {
      Result<QueryResult> r = session.Sql(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      return r.ok() ? static_cast<std::int64_t>(r.value().rows_affected) : -1;
    };
    const Match all = [](auto, auto) { return true; };

    // The model: the reference rows with each statement applied in-test.
    Rows model = Reference(*t, all);
    auto apply = [&model](const std::function<bool(std::vector<std::int64_t>*)>&
                              step) {
      Rows next;
      for (std::vector<std::int64_t> row : model) {
        if (step(&row)) next.push_back(row);
      }
      std::sort(next.begin(), next.end());
      model = std::move(next);
    };

    EXPECT_EQ(affected("UPDATE t SET val = val + 1 WHERE key >= 100 AND "
                       "key < 2100"),
              2'000);
    apply([](auto* row) {
      if ((*row)[0] >= 100 && (*row)[0] < 2'100) ++(*row)[1];
      return true;
    });
    EXPECT_EQ(affected("DELETE FROM t WHERE key = 5000"), 1);
    apply([](auto* row) { return (*row)[0] != 5'000; });
    EXPECT_EQ(affected("DELETE FROM t WHERE key < 0"), 0);
    EXPECT_EQ(affected("DELETE FROM t WHERE key >= 19000"), 1'000);
    apply([](auto* row) { return (*row)[0] < 19'000; });
    // A range update on the key itself moves rows into a range no block
    // summary covered before the commit.
    EXPECT_EQ(affected("UPDATE t SET key = key + 100000 WHERE key < 50"), 50);
    apply([](auto* row) {
      if ((*row)[0] < 50) (*row)[0] += 100'000;
      return true;
    });
    EXPECT_EQ(affected("UPDATE t SET val = 0 WHERE key >= 100000"), 50);
    apply([](auto* row) {
      if ((*row)[0] >= 100'000) (*row)[1] = 0;
      return true;
    });
    EXPECT_EQ(Reference(*t, all), model);
    EXPECT_EQ(Select(session, "SELECT key, val FROM t WHERE key >= 100000"),
              Reference(*t, [](auto k, auto) { return k >= 100'000; }));
    EXPECT_EQ(Select(session, "SELECT key, val FROM t WHERE key < 60"),
              Reference(*t, [](auto k, auto) { return k < 60; }));
  }
}

TEST(ScanPruningTest, PinnedReadersSeeTheirSnapshotUnderConcurrentCommits) {
  Engine engine(OptionsFor(4));
  LoadKv(engine, "t", 2, 13);
  const Catalog::TableRef ref = engine.catalog().Ref("t");
  ASSERT_TRUE(static_cast<bool>(ref));

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      while (!done.load()) {
        EpochGc::Guard guard(EpochGc::Global());
        const TableVersion* version = engine.catalog().PinnedVersion(ref);
        const PartitionedTable& snapshot = *version->snapshot;
        // Several reads of the same old version while commits go on.
        for (int i = 0; i < 3; ++i) {
          const auto lo = static_cast<std::int64_t>(rng.Uniform(0, 25'000));
          const std::int64_t hi =
              lo + static_cast<std::int64_t>(rng.Uniform(0, 3'000));
          LogicalPtr plan = LSelect(
              LSelect(LScan(snapshot, {0, 1}), Ge(Col(0), ConstInt(lo))),
              Lt(Col(0), ConstInt(hi)));
          EXPECT_EQ(SortedRows(PlanQuery(plan, engine.catalog().manager())),
                    Reference(snapshot, [lo, hi](auto k, auto) {
                      return k >= lo && k < hi;
                    }));
          reads.fetch_add(1);
        }
      }
    });
  }
  // A SQL reader on the full read path beside them.
  readers.emplace_back([&] {
    Session session = engine.CreateSession();
    while (!done.load()) {
      EXPECT_TRUE(
          session.Sql("SELECT key, val FROM t WHERE key >= 1000 AND key < 1500")
              .ok());
    }
  });

  Session writer = engine.CreateSession();
  std::int64_t next_key = kRows;
  for (int step = 0; step < 24; ++step) {
    std::string sql;
    switch (step % 3) {
      case 0: {
        sql = "INSERT INTO t VALUES ";
        for (int i = 0; i < 200; ++i) {
          if (i > 0) sql += ", ";
          sql += "(" + std::to_string(next_key++) + ", " + std::to_string(i) +
                 ")";
        }
        break;
      }
      case 1: {
        const std::int64_t lo = step * 500;
        sql = "DELETE FROM t WHERE key >= " + std::to_string(lo) +
              " AND key < " + std::to_string(lo + 100);
        break;
      }
      default: {
        const std::int64_t lo = 10'000 + step * 300;
        sql = "UPDATE t SET key = key + 3000 WHERE key >= " +
              std::to_string(lo) + " AND key < " + std::to_string(lo + 100);
        break;
      }
    }
    Result<QueryResult> r = writer.Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (reads.load() < 20) std::this_thread::yield();
  done.store(true);
  for (std::thread& t : readers) t.join();
}

TEST(ScanPruningTest, NucHandlersShareTheSummaryWithPinnedReaders) {
  // The NUC handlers on `val` read the head column's block summary while
  // readers prune `val` ranges with the summary their pinned versions
  // share with it. val = 2 * key, so each partition's blocks hold
  // narrow, disjoint value ranges.
  constexpr std::size_t kPartitions = 4;
  Engine engine(OptionsFor(4));
  auto table = std::make_unique<PartitionedTable>(KvSchema(), kPartitions);
  for (std::int64_t i = 0; i < kRows; ++i) table->AppendRow(KvRow(i, 2 * i));
  ASSERT_TRUE(
      engine.catalog().AddPartitionedTable("t", std::move(table)).ok());
  Session writer = engine.CreateSession();
  ASSERT_TRUE(
      writer.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());
  const Catalog::TableRef ref = engine.catalog().Ref("t");
  ASSERT_TRUE(static_cast<bool>(ref));

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(200 + static_cast<std::uint64_t>(r));
      while (!done.load()) {
        EpochGc::Guard guard(EpochGc::Global());
        const TableVersion* version = engine.catalog().PinnedVersion(ref);
        const PartitionedTable& snapshot = *version->snapshot;
        const auto lo = static_cast<std::int64_t>(rng.Uniform(0, 2 * kRows));
        const std::int64_t hi =
            lo + static_cast<std::int64_t>(rng.Uniform(0, 4'000));
        LogicalPtr plan = LSelect(
            LSelect(LScan(snapshot, {0, 1}), Ge(Col(1), ConstInt(lo))),
            Lt(Col(1), ConstInt(hi)));
        EXPECT_EQ(SortedRows(PlanQuery(plan, engine.catalog().manager())),
                  Reference(snapshot, [lo, hi](auto, auto v) {
                    return v >= lo && v < hi;
                  }));
        reads.fetch_add(1);
      }
    });
  }
  readers.emplace_back([&] {
    Session session = engine.CreateSession();
    while (!done.load()) {
      EXPECT_TRUE(
          session.Sql("SELECT key, val FROM t WHERE val >= 1000 AND val < 3000")
              .ok());
    }
  });

  // Inserts collide with existing values; range updates move values far
  // outside their blocks' bounds; single-row updates give two rows of one
  // partition, blocks apart, the same fresh value in separate commits.
  Rng rng(17);
  std::int64_t next_key = kRows;
  for (int step = 0; step < 30; ++step) {
    std::string sql;
    switch (step % 4) {
      case 0: {
        sql = "INSERT INTO t VALUES ";
        for (int i = 0; i < 50; ++i) {
          if (i > 0) sql += ", ";
          const auto val = static_cast<std::int64_t>(
              i % 2 == 0 ? 2 * rng.Uniform(0, kRows - 1)
                         : 1'000'000 + rng.Uniform(0, 1'000'000));
          sql += "(" + std::to_string(next_key++) + ", " +
                 std::to_string(val) + ")";
        }
        break;
      }
      case 1: {
        const auto lo = static_cast<std::int64_t>(rng.Uniform(0, kRows - 40));
        sql = "UPDATE t SET val = val + 50001 WHERE key >= " +
              std::to_string(lo) + " AND key < " + std::to_string(lo + 40);
        break;
      }
      default: {
        const std::int64_t key = (step % 4 == 2 ? 100 : 100 + 4 * 2'048) +
                                 step / 4 * 4;
        sql = "UPDATE t SET val = " + std::to_string(5'000'000 + step / 4) +
              " WHERE key = " + std::to_string(key);
        break;
      }
    }
    Result<QueryResult> r = writer.Sql(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (reads.load() < 20) std::this_thread::yield();
  done.store(true);
  for (std::thread& t : readers) t.join();

  const PartitionedTable& head = *engine.catalog().FindPartitionedTable("t");
  const std::vector<PatchIndex*> indexes =
      engine.catalog().manager().IndexesOn(head);
  ASSERT_EQ(indexes.size(), kPartitions);
  for (const PatchIndex* idx : indexes) {
    EXPECT_EQ(idx->NumRows(), idx->table().num_rows());
    EXPECT_TRUE(idx->CheckInvariant());
  }
  for (std::int64_t lo : {0, 150, 20'000, 1'000'000, 5'000'000}) {
    const std::int64_t hi = lo + 60'000;
    EXPECT_EQ(Select(writer, "SELECT key, val FROM t WHERE val >= " +
                                 std::to_string(lo) + " AND val < " +
                                 std::to_string(hi)),
              Reference(head, [lo, hi](auto, auto v) {
                return v >= lo && v < hi;
              }))
        << lo;
  }
  Result<QueryResult> distinct = writer.Sql("SELECT DISTINCT val FROM t");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  std::vector<std::int64_t> want;
  for (const auto& row : Reference(head, [](auto, auto) { return true; })) {
    want.push_back(row[1]);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::vector<std::int64_t> got = distinct.value().rows.columns[0].i64;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace patchindex
