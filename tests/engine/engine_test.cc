#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine_test_util.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

EngineOptions TestOptions(bool parallel = true) {
  EngineOptions options;
  // Small morsels so small test tables still go parallel; the one-thread
  // engine runs every pipeline inline.
  options.num_threads = parallel ? 4 : 1;
  options.morsel_rows = 2'048;
  options.optimizer.force_patch_rewrites = true;
  return options;
}

/// Loads a generated NUC table into the engine's catalog.
const Table* LoadNucTable(Engine& engine, const std::string& name,
                          std::uint64_t rows, double exception_rate = 0.1) {
  GeneratorConfig config;
  config.num_rows = rows;
  config.exception_rate = exception_rate;
  auto added = engine.catalog().AddTable(
      name, std::make_unique<Table>(GenerateNucTable(config)));
  EXPECT_TRUE(added.ok());
  return added.value();
}

TEST(EngineTest, SelectChainRunsParallelAndMatchesSerial) {
  Engine parallel_engine(TestOptions());
  Engine serial_engine(TestOptions(/*parallel=*/false));
  const Table* pt = LoadNucTable(parallel_engine, "t", 20'000);
  LoadNucTable(serial_engine, "t", 20'000);
  const Table* st = serial_engine.catalog().FindTable("t");

  auto make_plan = [](const Table& t) {
    return LSelect(LScan(t, {0, 1}), Lt(Col(0), ConstInt(12'345)), 0.6);
  };
  auto pr = parallel_engine.CreateSession().Execute(make_plan(*pt));
  auto sr = serial_engine.CreateSession().Execute(make_plan(*st));
  ASSERT_TRUE(pr.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(pr.value().parallel);
  EXPECT_FALSE(sr.value().parallel);
  EXPECT_EQ(pr.value().rows.num_rows(), 12'345u);
  ExpectSameRows(sr.value().rows, pr.value().rows);
}

TEST(EngineTest, GroupingAggregateMergesPartials) {
  Engine engine(TestOptions());
  const Table* t = LoadNucTable(engine, "t", 10'000, 0.4);
  // Group the duplicated exception values; sum/count/min/max over the key.
  LogicalPtr plan = LAggregate(LScan(*t, {1, 0}), {0},
                               {{AggOp::kCount, 0},
                                {AggOp::kSum, 1},
                                {AggOp::kMin, 1},
                                {AggOp::kMax, 1}});
  auto parallel = engine.CreateSession().Execute(plan);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel.value().parallel);

  Engine serial(TestOptions(/*parallel=*/false));
  LogicalPtr serial_plan = LAggregate(LScan(*t, {1, 0}), {0},
                                      {{AggOp::kCount, 0},
                                       {AggOp::kSum, 1},
                                       {AggOp::kMin, 1},
                                       {AggOp::kMax, 1}});
  auto reference = serial.CreateSession().Execute(serial_plan);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(reference.value().rows, parallel.value().rows);
}

TEST(EngineTest, JoinRunsParallelAndMatchesSerial) {
  Engine engine(TestOptions());
  const Table* a = LoadNucTable(engine, "a", 4'000);
  const Table* b = LoadNucTable(engine, "b", 4'000);
  LogicalPtr plan = LJoin(LScan(*a, {0, 1}), LScan(*b, {0, 1}), 0, 0);
  auto result = engine.CreateSession().Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().parallel);
  EXPECT_TRUE(result.value().parallel_join);
  EXPECT_EQ(result.value().rows.num_rows(), 4'000u);

  Engine serial(TestOptions(/*parallel=*/false));
  const Table* sa = LoadNucTable(serial, "a", 4'000);
  const Table* sb = LoadNucTable(serial, "b", 4'000);
  auto reference = serial.CreateSession().Execute(
      LJoin(LScan(*sa, {0, 1}), LScan(*sb, {0, 1}), 0, 0));
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference.value().parallel);
  ExpectSameRows(reference.value().rows, result.value().rows);
}

TEST(EngineTest, SmallTablesStaySerialByDefault) {
  EngineOptions options;
  options.num_threads = 4;  // default morsel_rows: 100 rows are one morsel
  Engine engine(options);
  const Table* t = LoadNucTable(engine, "t", 100);
  auto result = engine.CreateSession().Execute(LScan(*t, {0}));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().parallel);
  EXPECT_EQ(result.value().rows.num_rows(), 100u);
}

TEST(EngineTest, PatchDistinctRunsParallelThroughRewriter) {
  Engine engine(TestOptions());
  const Table* t = LoadNucTable(engine, "t", 20'000, 0.3);
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());
  EXPECT_EQ(
      session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).code(),
      StatusCode::kAlreadyExists);

  auto with_index = session.Execute(LDistinct(LScan(*t, {1}), {0}));
  ASSERT_TRUE(with_index.ok());
  EXPECT_TRUE(with_index.value().parallel);

  Engine serial(TestOptions(/*parallel=*/false));
  LoadNucTable(serial, "t", 20'000, 0.3);
  const Table* st = serial.catalog().FindTable("t");
  auto reference =
      serial.CreateSession().Execute(LDistinct(LScan(*st, {1}), {0}));
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(reference.value().rows, with_index.value().rows);
}

TEST(EngineTest, UpdateQueriesRoundTripThroughSession) {
  Engine engine(TestOptions());
  const Table* t = LoadNucTable(engine, "t", 5'000);
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());

  std::vector<Row> rows;
  for (std::int64_t i = 0; i < 10; ++i) {
    rows.push_back(MakeGeneratorRow(5'000 + i, 9'000'000 + i));
  }
  ASSERT_TRUE(session.ExecuteUpdate("t", UpdateQuery::Insert(rows)).ok());
  EXPECT_EQ(t->num_rows(), 5'010u);
  EXPECT_TRUE(t->pdt().empty());  // committed, not just buffered

  ASSERT_TRUE(
      session.ExecuteUpdate("t", UpdateQuery::Delete({0, 1, 2})).ok());
  EXPECT_EQ(t->num_rows(), 5'007u);

  ASSERT_TRUE(session
                  .ExecuteUpdate("t", UpdateQuery::Modify(
                                          {{7, 1, Value(std::int64_t{-1})}}))
                  .ok());
  auto result = session.Execute(
      LSelect(LScan(*t, {1}), Eq(Col(0), ConstInt(-1)), 0.01));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.num_rows(), 1u);

  // The index stayed consistent through all three update queries.
  auto indexes = engine.catalog().manager().IndexesOn(*t);
  ASSERT_EQ(indexes.size(), 1u);
  EXPECT_TRUE(indexes[0]->CheckInvariant());
}

TEST(EngineTest, UpdateValidation) {
  Engine engine(TestOptions());
  LoadNucTable(engine, "t", 100);
  Session session = engine.CreateSession();

  UpdateQuery mixed;
  mixed.inserts.push_back(MakeGeneratorRow(100, 100));
  mixed.deletes.push_back(0);
  EXPECT_EQ(session.ExecuteUpdate("t", mixed).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(session.ExecuteUpdate("missing", UpdateQuery::Delete({0})).code(),
            StatusCode::kNotFound);

  EXPECT_EQ(session.ExecuteUpdate("t", UpdateQuery::Delete({1'000})).code(),
            StatusCode::kOutOfRange);

  UpdateQuery bad_arity;
  bad_arity.inserts.push_back(Row{{Value(std::int64_t{1})}});
  EXPECT_EQ(session.ExecuteUpdate("t", bad_arity).code(),
            StatusCode::kInvalidArgument);

  UpdateQuery bad_insert_type;
  bad_insert_type.inserts.push_back(
      Row{{Value(std::int64_t{1}), Value(std::string("oops"))}});
  EXPECT_EQ(session.ExecuteUpdate("t", bad_insert_type).code(),
            StatusCode::kInvalidArgument);

  // A half-valid modify batch must be rejected atomically.
  UpdateQuery bad_modify_type;
  bad_modify_type.modifies.push_back({0, 1, Value(std::int64_t{5})});
  bad_modify_type.modifies.push_back({1, 1, Value(std::string("oops"))});
  EXPECT_EQ(session.ExecuteUpdate("t", bad_modify_type).code(),
            StatusCode::kInvalidArgument);

  // Rejected queries must leave no partial PDT behind.
  EXPECT_TRUE(engine.catalog().FindTable("t")->pdt().empty());
}

TEST(EngineTest, CreatePatchIndexValidation) {
  Engine engine(TestOptions());
  auto t = std::make_unique<Table>(Schema({{"name", ColumnType::kString}}));
  t->AppendRow(Row{{Value(std::string("x"))}});
  ASSERT_TRUE(engine.catalog().AddTable("s", std::move(t)).ok());
  Session session = engine.CreateSession();
  EXPECT_EQ(
      session.CreatePatchIndex("s", 0, ConstraintKind::kNearlyUnique).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.CreatePatchIndex("s", 9, ConstraintKind::kNearlyUnique).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.CreatePatchIndex("nope", 0, ConstraintKind::kNearlyUnique)
          .code(),
      StatusCode::kNotFound);
}

TEST(EngineTest, ConcurrentReadersInterleaveWithUpdateQueries) {
  constexpr std::uint64_t kBaseRows = 8'192;
  constexpr int kInsertBatches = 20;
  constexpr int kRowsPerBatch = 64;

  Engine engine(TestOptions());
  LoadNucTable(engine, "t", kBaseRows, 0.2);
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());

  // Row counts a reader may legally observe: exactly the commit points.
  std::set<std::uint64_t> valid_counts;
  for (int i = 0; i <= kInsertBatches; ++i) {
    valid_counts.insert(kBaseRows + static_cast<std::uint64_t>(i) *
                                        kRowsPerBatch);
  }

  // Readers run a fixed budget of queries (not a stop flag): on
  // reader-preferring rwlock implementations a tight reader loop could
  // starve the writer forever, deadlocking the test rather than the
  // engine.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&engine, &valid_counts, &failed] {
      Session reader = engine.CreateSession();
      for (int q = 0; q < 25; ++q) {
        const Table* t = engine.catalog().FindTable("t");
        auto result = reader.Execute(LScan(*t, {0}));
        if (!result.ok() ||
            valid_counts.count(result.value().rows.num_rows()) == 0) {
          failed.store(true);
          return;
        }
      }
    });
  }

  Session writer = engine.CreateSession();
  for (int i = 0; i < kInsertBatches; ++i) {
    std::vector<Row> rows;
    for (int j = 0; j < kRowsPerBatch; ++j) {
      const std::int64_t key =
          static_cast<std::int64_t>(kBaseRows) + i * kRowsPerBatch + j;
      rows.push_back(MakeGeneratorRow(key, 50'000'000 + key));
    }
    ASSERT_TRUE(writer.ExecuteUpdate("t", UpdateQuery::Insert(rows)).ok());
  }
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());

  auto indexes =
      engine.catalog().manager().IndexesOn(*engine.catalog().FindTable("t"));
  ASSERT_EQ(indexes.size(), 1u);
  EXPECT_TRUE(indexes[0]->CheckInvariant());
}

TEST(EngineTest, ReadsSeeOnlyPublishedVersions) {
  Engine engine(TestOptions());
  LoadNucTable(engine, "t", 1'000);
  const Catalog::TableRef ref = engine.catalog().Ref("t");
  ASSERT_TRUE(ref);
  auto count = [&engine] {
    Result<QueryResult> r =
        engine.CreateSession().Sql("SELECT COUNT(*) FROM t");
    return r.ok() ? r.value().rows.columns[0].i64[0] : std::int64_t{-1};
  };

  std::unique_lock<std::shared_mutex> exclusive(*ref.lock);
  // A delta buffered on the head but never committed or published.
  ref.ptable->BufferInsert(MakeGeneratorRow(1'000, 7));
  // (a) A reader on another thread neither waits for the writer's lock
  // nor sees the buffered delta.
  std::future<std::int64_t> during = std::async(std::launch::async, count);
  const bool ready = during.wait_for(std::chrono::seconds(30)) ==
                     std::future_status::ready;
  exclusive.unlock();
  ASSERT_TRUE(ready) << "the reader waited on the writer's lock";
  EXPECT_EQ(during.get(), 1'000);
  // (b) The lock is released with no publish: the published version is
  // still the table's state.
  EXPECT_EQ(count(), 1'000);
}

}  // namespace
}  // namespace patchindex
