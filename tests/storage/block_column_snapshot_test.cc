// Snapshot isolation over shared column blocks. A Table copy
// (CloneShared, the MVCC snapshot) shares every column block with the
// head, and each head mutation copies only the blocks it writes. A block
// written without that copy would show up in a live snapshot; these tests
// compare every live snapshot with the cells captured when it was taken,
// after every step of a seeded random mutation stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/epoch_gc.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "storage/column.h"
#include "storage/minmax.h"
#include "storage/table.h"

namespace patchindex {

/// Reads Column's block pointers (private) to count sharing.
class BlockColumnTestPeer {
 public:
  /// Blocks of `a` that `b` does not also hold.
  static std::size_t UnsharedBlocks(const Column& a, const Column& b) {
    std::unordered_set<const void*> in_b;
    for (const auto& block : b.blocks_) in_b.insert(block.get());
    std::size_t unshared = 0;
    for (const auto& block : a.blocks_) {
      if (in_b.count(block.get()) == 0) ++unshared;
    }
    return unshared;
  }
};

namespace {

constexpr std::uint64_t kBlock = Column::kSummaryBlockRows;

Schema MixedSchema() {
  return Schema({{"i", ColumnType::kInt64},
                 {"d", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
}

/// The base cells of a table, column by column.
struct Cells {
  std::vector<std::int64_t> i;
  std::vector<double> d;
  std::vector<std::string> s;

  friend bool operator==(const Cells& a, const Cells& b) {
    return a.i == b.i && a.d == b.d && a.s == b.s;
  }
};

Cells Capture(const Table& t) {
  return {t.column(0).i64_data(), t.column(1).f64_data(),
          t.column(2).str_data()};
}

/// A snapshot with the cells and pending-delta sizes it had when taken.
struct Snapshot {
  std::unique_ptr<const Table> table;
  Cells cells;
};

/// The summary of an INT64 column equals a fresh min/max over the rows
/// of each of its blocks, and the blocks tile the column.
void ExpectSummaryMatchesRows(const Column& c) {
  const std::shared_ptr<const MinMaxIndex> summary = c.BlockSummary();
  ASSERT_EQ(summary->num_rows(), c.size());
  RowId next = 0;
  for (std::uint64_t b = 0; b < summary->num_blocks(); ++b) {
    const RowRange rows = summary->BlockRange(b);
    ASSERT_EQ(rows.begin, next);
    ASSERT_GT(rows.end, rows.begin);
    ASSERT_LE(rows.end - rows.begin, kBlock);
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    c.ForEachSpan<std::int64_t>(
        rows.begin, rows.end, [&](const std::int64_t* v, std::size_t n) {
          for (std::size_t k = 0; k < n; ++k) {
            lo = std::min(lo, v[k]);
            hi = std::max(hi, v[k]);
          }
        });
    ASSERT_EQ(summary->BlockMin(b), lo) << "block " << b;
    ASSERT_EQ(summary->BlockMax(b), hi) << "block " << b;
    next = rows.end;
  }
  ASSERT_EQ(next, c.size());
}

/// The head's rows as plain vectors plus the deltas buffered since the
/// last checkpoint, folded in the order Table::Checkpoint applies them.
struct Model {
  Cells base;
  std::map<RowId, std::map<std::size_t, Value>> modifies;
  std::set<RowId> deletes;
  std::vector<Row> inserts;

  void Checkpoint() {
    for (const auto& [row, cols] : modifies) {
      for (const auto& [col, v] : cols) {
        if (col == 0) base.i[row] = v.AsInt64();
        if (col == 1) base.d[row] = v.AsDouble();
        if (col == 2) base.s[row] = v.AsString();
      }
    }
    Cells kept;
    for (RowId r = 0; r < base.i.size(); ++r) {
      if (deletes.count(r) != 0) continue;
      kept.i.push_back(base.i[r]);
      kept.d.push_back(base.d[r]);
      kept.s.push_back(base.s[r]);
    }
    for (const Row& row : inserts) {
      kept.i.push_back(row.cells[0].AsInt64());
      kept.d.push_back(row.cells[1].AsDouble());
      kept.s.push_back(row.cells[2].AsString());
    }
    base = std::move(kept);
    modifies.clear();
    deletes.clear();
    inserts.clear();
  }
};

Value RandomCell(std::size_t col, Rng& rng) {
  const auto n = static_cast<std::int64_t>(rng.Uniform(0, 1'000'000));
  if (col == 0) return Value(n - 500'000);
  if (col == 1) return Value(static_cast<double>(n) / 8.0);
  // Past the small-string buffer now and then, so copies own heap bytes.
  return Value(std::string(rng.Uniform(0, 3) == 0 ? 24 : 3, 'a' + n % 26));
}

TEST(BlockColumnSnapshotTest, LiveSnapshotsKeepTheirCellsUnderRandomSteps) {
  constexpr int kSteps = 400;
  constexpr std::size_t kMaxLive = 5;
  Rng rng(20261018);
  Table head(MixedSchema());
  Model model;
  std::vector<Snapshot> live;

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t rows = head.num_rows();
    // Row range of block `which` (0 = first, 1 = last, else random).
    auto block_rows = [&](std::uint64_t which) {
      const std::shared_ptr<const MinMaxIndex> s =
          head.column(0).BlockSummary();
      const std::uint64_t b = which == 0   ? 0
                              : which == 1 ? s->num_blocks() - 1
                                           : rng.Uniform(0, s->num_blocks() - 1);
      return s->BlockRange(b);
    };
    auto modify = [&](RowId r) {
      const std::size_t col = rng.Uniform(0, 2);
      Value v = RandomCell(col, rng);
      ASSERT_TRUE(head.BufferModify(r, col, v).ok());
      model.modifies[r][col] = std::move(v);
    };
    auto erase = [&](RowId r) {
      ASSERT_TRUE(head.BufferDelete(r).ok());
      model.deletes.insert(r);
    };
    const std::uint64_t op = rows == 0 ? 0 : rng.Uniform(0, 6);
    switch (op) {
      case 0: {  // insert 1-2000 rows
        const std::uint64_t n = rng.Uniform(1, 2000);
        for (std::uint64_t k = 0; k < n; ++k) {
          Row row{{RandomCell(0, rng), RandomCell(1, rng), RandomCell(2, rng)}};
          model.inserts.push_back(row);
          head.BufferInsert(std::move(row));
        }
        break;
      }
      case 1:  // single-row modify
        modify(rng.Uniform(0, rows - 1));
        break;
      case 2: {  // whole-block modify
        const RowRange r = block_rows(rng.Uniform(0, 2));
        for (RowId row = r.begin; row < r.end; ++row) modify(row);
        break;
      }
      case 3:  // single-row delete
        erase(rng.Uniform(0, rows - 1));
        break;
      case 4: {  // whole-block delete
        const RowRange r = block_rows(rng.Uniform(0, 2));
        for (RowId row = r.begin; row < r.end; ++row) erase(row);
        break;
      }
      default:
        head.Checkpoint();
        model.Checkpoint();
        break;
    }
    if (rng.Uniform(0, 2) != 0) {  // most steps commit right away
      head.Checkpoint();
      model.Checkpoint();
    }

    if (step % 3 == 0) {
      // Only a committed state is published.
      head.Checkpoint();
      model.Checkpoint();
      if (live.size() == kMaxLive) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(
                                      rng.Uniform(0, kMaxLive - 1)));
      }
      std::unique_ptr<const Table> snap = head.CloneShared();
      Cells cells = Capture(*snap);
      live.push_back({std::move(snap), std::move(cells)});
    }

    ASSERT_EQ(Capture(head), model.base) << "step " << step;
    ASSERT_EQ(head.pdt().inserts().size(), model.inserts.size());
    ASSERT_EQ(head.pdt().deletes().size(), model.deletes.size());
    ExpectSummaryMatchesRows(head.column(0));
    for (const Snapshot& s : live) {
      ASSERT_EQ(Capture(*s.table), s.cells) << "step " << step;
      ExpectSummaryMatchesRows(s.table->column(0));
    }
  }
}

TEST(BlockColumnSnapshotTest, OneRowCommitCopiesAtMostTwoBlocksPerColumn) {
  constexpr std::int64_t kRows = 1'000'000;
  Table head(Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kDouble}}));
  for (std::int64_t r = 0; r < kRows; ++r) {
    head.column(0).AppendInt64(r);
    head.column(1).AppendDouble(static_cast<double>(r) / 2);
  }
  auto expect_shared = [&](const Table& snap, const char* what) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_LE(BlockColumnTestPeer::UnsharedBlocks(head.column(c),
                                                    snap.column(c)),
                2u)
          << what << ", column " << c;
      EXPECT_LE(BlockColumnTestPeer::UnsharedBlocks(snap.column(c),
                                                    head.column(c)),
                2u)
          << what << ", column " << c;
    }
  };

  std::unique_ptr<const Table> before_append = head.CloneShared();
  head.BufferInsert(Row{{Value(std::int64_t{-1}), Value(0.5)}});
  head.Checkpoint();
  expect_shared(*before_append, "append");
  EXPECT_EQ(before_append->num_rows(), static_cast<std::uint64_t>(kRows));

  std::unique_ptr<const Table> before_modify = head.CloneShared();
  ASSERT_TRUE(head.BufferModify(kRows / 2, 0, Value(std::int64_t{-7})).ok());
  head.Checkpoint();
  expect_shared(*before_modify, "modify");
  EXPECT_EQ(before_modify->column(0).GetInt64(kRows / 2), kRows / 2);
  EXPECT_EQ(head.column(0).GetInt64(kRows / 2), -7);

  std::unique_ptr<const Table> before_delete = head.CloneShared();
  ASSERT_TRUE(head.BufferDelete(12'345).ok());
  head.Checkpoint();
  expect_shared(*before_delete, "delete");
  EXPECT_EQ(before_delete->column(0).GetInt64(12'345), 12'345);
  EXPECT_EQ(head.column(0).GetInt64(12'345), 12'346);
  EXPECT_EQ(head.num_rows(), static_cast<std::uint64_t>(kRows));
}

TEST(BlockColumnSnapshotTest, PinnedReaderKeepsItsAnswerAcrossSqlCommits) {
  EngineOptions options;
  options.num_threads = 1;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 1")
                  .ok());
  constexpr int kRows = 5 * static_cast<int>(kBlock);
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int r = base; r < base + 500; ++r) {
      sql += (r == base ? "(" : ", (") + std::to_string(r) + ", " +
             std::to_string(r % 97 == 0 ? 7 : r) + ")";
    }
    ASSERT_TRUE(session.Sql(sql).ok());
  }
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());
  const Catalog::TableRef ref = engine.catalog().Ref("t");
  ASSERT_TRUE(static_cast<bool>(ref));

  EpochGc::Guard guard(EpochGc::Global());
  const TableVersion* pinned = engine.catalog().PinnedVersion(ref);
  const Table& snap = pinned->snapshot->partition(0);
  const std::vector<std::int64_t> want_keys = snap.column(0).i64_data();
  const std::vector<std::int64_t> want_vals = snap.column(1).i64_data();
  ASSERT_EQ(pinned->indexes.size(), 1u);
  const std::vector<RowId> want_patches =
      pinned->indexes[0]->patches().PatchRowIds();

  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto k = static_cast<std::int64_t>(rng.Uniform(0, kRows - 1));
    std::string sql;
    switch (i % 3) {
      case 0:
        sql = "INSERT INTO t VALUES (" + std::to_string(kRows + i) + ", " +
              std::to_string(k) + ")";
        break;
      case 1:
        sql = "UPDATE t SET v = " + std::to_string(k + 1) +
              " WHERE k = " + std::to_string(k);
        break;
      default:
        sql = "DELETE FROM t WHERE k = " + std::to_string(k);
        break;
    }
    ASSERT_TRUE(session.Sql(sql).ok()) << sql;
    ASSERT_EQ(snap.column(0).i64_data(), want_keys) << "after " << sql;
    ASSERT_EQ(snap.column(1).i64_data(), want_vals) << "after " << sql;
    ASSERT_EQ(pinned->indexes[0]->patches().PatchRowIds(), want_patches);
    ASSERT_TRUE(pinned->indexes[0]->CheckInvariant());
    ExpectSummaryMatchesRows(snap.column(1));
  }
  EXPECT_NE(engine.catalog().PinnedVersion(ref), pinned);
}

}  // namespace
}  // namespace patchindex
