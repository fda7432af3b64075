// Exact differential test for NUC maintenance (paper §5.1, Fig. 5): after
// every committed INSERT or UPDATE, each partition's patch set must be
// the previous one plus exactly the rows whose committed value is one of
// the delta's new values and occurs at least twice in the partition.
//
// The stream draws from a small value domain, so new values collide with
// base rows, with each other, and with the *old* values of other rows the
// same statement modifies (which must not count). It runs with range
// propagation on and off, with both patch-set designs, on one and four
// partitions committed in parallel, and with two base layouts: values
// clustered by position (blocks cover disjoint ranges, so range
// propagation prunes) and scattered over every block (pruning keeps every
// block, so the stale-row filter and the delta's hash map run on the
// full-scan path).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "patchindex/manager.h"

namespace patchindex {
namespace {

enum class Layout { kClustered, kScattered };

using Param =
    std::tuple<bool /*drp*/, PatchSetDesign, std::size_t /*parts*/, Layout>;

class NucMaintenanceDifferentialTest : public ::testing::TestWithParam<Param> {
};

constexpr std::uint64_t kRowsPerPartition = 3 * 1024;

/// Row i of a partition holds about 3i: blocks cover disjoint value
/// ranges (so range propagation prunes), and neighbours sometimes collide.
/// Scattered, it holds about 3 h(i) for a multiplicative hash h permuting
/// the positions, so every block spans nearly the whole domain.
std::int64_t BaseValue(std::uint64_t i, Layout layout, Rng& rng) {
  if (layout == Layout::kScattered) {
    i = (i * 0x9E3779B1ULL) % kRowsPerPartition;  // coprime: a permutation
  }
  return static_cast<std::int64_t>(3 * i + rng.Uniform(0, 4));
}

/// The delta's new values on the indexed column of one partition.
std::unordered_set<std::int64_t> DeltaValues(const Table& part) {
  std::unordered_set<std::int64_t> values;
  for (const Row& row : part.pdt().inserts()) {
    values.insert(row.cells[1].AsInt64());
  }
  for (const auto& [row, cols] : part.pdt().modifies()) {
    auto it = cols.find(1);
    if (it != cols.end()) values.insert(it->second.AsInt64());
  }
  return values;
}

/// previous ∪ {r : value(r) ∈ delta, value(r) occurs ≥ 2 times}.
std::vector<RowId> ExpectedPatches(
    const Table& part, const std::vector<RowId>& previous,
    const std::unordered_set<std::int64_t>& delta) {
  const Column& col = part.column(1);
  std::unordered_map<std::int64_t, std::uint32_t> counts;
  for (RowId r = 0; r < part.num_rows(); ++r) ++counts[col.GetInt64(r)];
  std::set<RowId> expected(previous.begin(), previous.end());
  for (RowId r = 0; r < part.num_rows(); ++r) {
    const std::int64_t v = col.GetInt64(r);
    if (delta.count(v) != 0 && counts[v] >= 2) expected.insert(r);
  }
  return {expected.begin(), expected.end()};
}

TEST_P(NucMaintenanceDifferentialTest, PatchSetsMatchTheClosedForm) {
  const auto [drp, design, parts, layout] = GetParam();
  Rng rng(4242 + parts);
  PartitionedTable table(
      Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}}),
      parts);
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::uint64_t i = 0; i < kRowsPerPartition; ++i) {
      table.partition(p).AppendRow(
          Row{{Value(static_cast<std::int64_t>(i)),
               Value(BaseValue(i, layout, rng))}});
    }
  }
  PatchIndexOptions options;
  options.design = design;
  options.use_dynamic_range_propagation = drp;
  options.bitmap_options.shard_size_bits = 256;
  ThreadPool pool(2);
  PatchIndexManager manager;
  const std::vector<PatchIndex*> indexes = manager.CreatePartitionedIndex(
      table, 1, ConstraintKind::kNearlyUnique, options, &pool);
  ASSERT_EQ(indexes.size(), parts);

  const auto domain = static_cast<std::int64_t>(3 * kRowsPerPartition);
  int pruned = 0;
  int full_scans = 0;
  for (int step = 0; step < 48; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step % 2 == 0) {
      // Multi-row INSERT around one spot of the domain: the new values
      // hit base rows there and, drawn from a narrow window, each other.
      const auto center = static_cast<std::int64_t>(rng.Uniform(0, domain));
      const std::uint64_t rows = rng.Uniform(2, 12);
      for (std::uint64_t k = 0; k < rows; ++k) {
        table.BufferInsert(Row{
            {Value(std::int64_t{-1}),
             Value(center + static_cast<std::int64_t>(rng.Uniform(0, 8)))}});
      }
    } else {
      // Multi-row UPDATE over a few partitions. A new value is a fresh
      // one, another modified row's old value (stale in the base
      // column, so it must not count), a value of some base row, or
      // another modified row's new value; now and then a row changes only
      // the other column.
      for (std::size_t p = 0; p < parts; ++p) {
        if (parts > 1 && rng.NextBool(0.5)) continue;
        Table& part = table.partition(p);
        const Column& col = part.column(1);
        std::set<RowId> rows_set;
        const std::uint64_t want = rng.Uniform(2, 8);
        while (rows_set.size() < want) {
          rows_set.insert(rng.Uniform(0, part.num_rows() - 1));
        }
        const std::vector<RowId> rows(rows_set.begin(), rows_set.end());
        std::vector<std::int64_t> chosen;
        for (RowId r : rows) {
          if (rng.NextBool(0.15)) {
            ASSERT_TRUE(part.BufferModify(r, 0, Value(std::int64_t{7})).ok());
            continue;
          }
          std::int64_t v = 0;
          switch (rng.Uniform(0, 3)) {
            case 0:
              v = domain + static_cast<std::int64_t>(rng.Uniform(0, 64));
              break;
            case 1:
              v = col.GetInt64(rows[rng.Uniform(0, rows.size() - 1)]);
              break;
            case 2:
              v = col.GetInt64(rng.Uniform(0, part.num_rows() - 1));
              break;
            default:
              v = chosen.empty() ? col.GetInt64(r)
                                 : chosen[rng.Uniform(0, chosen.size() - 1)];
              break;
          }
          chosen.push_back(v);
          ASSERT_TRUE(part.BufferModify(r, 1, Value(v)).ok());
        }
      }
    }

    std::vector<std::vector<RowId>> previous(parts);
    std::vector<std::unordered_set<std::int64_t>> delta(parts);
    for (std::size_t p = 0; p < parts; ++p) {
      previous[p] = indexes[p]->patches().PatchRowIds();
      delta[p] = DeltaValues(table.partition(p));
    }
    ASSERT_TRUE(manager.CommitUpdateQuery(table, &pool).ok());
    for (std::size_t p = 0; p < parts; ++p) {
      SCOPED_TRACE("partition " + std::to_string(p));
      ASSERT_TRUE(indexes[p]->CheckInvariant());
      ASSERT_EQ(indexes[p]->patches().PatchRowIds(),
                ExpectedPatches(table.partition(p), previous[p], delta[p]));
      if (delta[p].empty()) continue;
      if (indexes[p]->last_handled_scan_fraction() < 1.0) {
        ++pruned;
      } else {
        ++full_scans;
      }
    }
  }
  if (drp && layout == Layout::kClustered) {
    EXPECT_GT(pruned, 0);
  }
  if (layout == Layout::kScattered) {
    EXPECT_GT(full_scans, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NucMaintenanceDifferentialTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(PatchSetDesign::kBitmap,
                                         PatchSetDesign::kIdentifier),
                       ::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(Layout::kClustered,
                                         Layout::kScattered)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) ? "Drp" : "NoDrp") +
             (std::get<1>(info.param) == PatchSetDesign::kBitmap
                  ? "Bitmap"
                  : "Identifier") +
             std::to_string(std::get<2>(info.param)) + "Parts" +
             (std::get<3>(info.param) == Layout::kScattered ? "Scattered"
                                                            : "");
    });

}  // namespace
}  // namespace patchindex
