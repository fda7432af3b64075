// Tests for the fused PatchIndex scan (paper §3.3: the selection modes
// merge the patch information on-the-fly into the scan's dataflow) and
// the range iteration that backs it.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "exec/scan.h"
#include "exec_test_util.h"
#include "patchindex/patch_set.h"

namespace patchindex {
namespace {

std::unique_ptr<PatchSet> MakeSet(PatchSetDesign design, std::uint64_t rows,
                                  const std::vector<RowId>& patches) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 128;
  auto ps = PatchSet::Create(design, rows, opt);
  for (RowId r : patches) ps->MarkPatch(r);
  return ps;
}

class PatchScanTest : public ::testing::TestWithParam<PatchSetDesign> {};

TEST_P(PatchScanTest, ExcludeModeSkipsPatches) {
  Table t = MakeKvTable({10, 11, 12, 13, 14, 15});
  auto ps = MakeSet(GetParam(), 6, {1, 4});
  ScanOptions opt;
  opt.patch_filter = ps.get();
  opt.patch_mode = PatchSelectMode::kExcludePatches;
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{10, 12, 13, 15}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 2, 3, 5}));
}

TEST_P(PatchScanTest, UseModeEmitsOnlyPatches) {
  Table t = MakeKvTable({10, 11, 12, 13, 14, 15});
  auto ps = MakeSet(GetParam(), 6, {1, 4});
  ScanOptions opt;
  opt.patch_filter = ps.get();
  opt.patch_mode = PatchSelectMode::kUsePatches;
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{11, 14}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{1, 4}));
}

TEST_P(PatchScanTest, ModesPartitionLargeTables) {
  // Property: exclude + use partition the scan exactly, across batch
  // boundaries and shard boundaries.
  const std::uint64_t n = kBatchSize * 3 + 77;
  std::vector<std::int64_t> vals(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    vals[i] = static_cast<std::int64_t>(i);
  }
  Table t = MakeKvTable(vals);
  Rng rng(12);
  std::set<RowId> patch_set;
  for (int i = 0; i < 500; ++i) patch_set.insert(rng.Uniform(0, n - 1));
  auto ps = MakeSet(GetParam(), n,
                    std::vector<RowId>(patch_set.begin(), patch_set.end()));

  ScanOptions ex_opt;
  ex_opt.patch_filter = ps.get();
  ex_opt.patch_mode = PatchSelectMode::kExcludePatches;
  ScanOperator ex_scan(t, {1}, ex_opt);
  Batch ex = Collect(ex_scan);

  ScanOptions use_opt;
  use_opt.patch_filter = ps.get();
  use_opt.patch_mode = PatchSelectMode::kUsePatches;
  ScanOperator use_scan(t, {1}, use_opt);
  Batch use = Collect(use_scan);

  EXPECT_EQ(ex.num_rows() + use.num_rows(), n);
  EXPECT_EQ(use.num_rows(), patch_set.size());
  for (RowId r : use.row_ids) EXPECT_TRUE(patch_set.count(r)) << r;
  for (RowId r : ex.row_ids) EXPECT_FALSE(patch_set.count(r)) << r;
}

TEST_P(PatchScanTest, CombinesWithStaticRanges) {
  Table t = MakeKvTable({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto ps = MakeSet(GetParam(), 10, {3, 7});
  ScanOptions opt;
  opt.patch_filter = ps.get();
  opt.patch_mode = PatchSelectMode::kExcludePatches;
  opt.ranges = {{2, 5}, {6, 9}};
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{2, 4, 6, 8}));
}

TEST_P(PatchScanTest, SlowPathWithPendingModifies) {
  Table t = MakeKvTable({10, 11, 12});
  ASSERT_TRUE(t.BufferModify(0, 1, Value(std::int64_t{99})).ok());
  t.Checkpoint();
  auto ps = MakeSet(GetParam(), 3, {1});
  ScanOptions opt;
  opt.patch_filter = ps.get();
  opt.patch_mode = PatchSelectMode::kExcludePatches;
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{99, 12}));
}

TEST_P(PatchScanTest, PendingInsertsBeyondFilterDomainAreNonPatches) {
  Table t = MakeKvTable({10, 11});
  t.BufferInsert(Row{{Value(std::int64_t{2}), Value(std::int64_t{12})}});
  t.Checkpoint();
  auto ps = MakeSet(GetParam(), 2, {0});
  ScanOptions opt;
  opt.patch_filter = ps.get();
  opt.patch_mode = PatchSelectMode::kExcludePatches;
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  // Row 0 excluded (patch); the appended row (rowid 2, beyond the
  // filter's 2-row domain) counts as non-patch.
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{11, 12}));
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, PatchScanTest,
                         ::testing::Values(PatchSetDesign::kBitmap,
                                           PatchSetDesign::kIdentifier),
                         [](const auto& info) {
                           return info.param == PatchSetDesign::kBitmap
                                      ? "Bitmap"
                                      : "Identifier";
                         });

TEST(RangeIterationTest, ShardedBitmapForEachSetBitInRange) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 128;
  ShardedBitmap bm(1000, opt);
  const std::vector<std::uint64_t> bits = {0, 5, 127, 128, 300, 999};
  for (auto b : bits) bm.Set(b);

  auto collect = [&](std::uint64_t lo, std::uint64_t hi) {
    std::vector<std::uint64_t> out;
    bm.ForEachSetBitInRange(lo, hi, [&](std::uint64_t p) { out.push_back(p); });
    return out;
  };
  EXPECT_EQ(collect(0, 1000), bits);
  EXPECT_EQ(collect(5, 128), (std::vector<std::uint64_t>{5, 127}));
  EXPECT_EQ(collect(128, 129), (std::vector<std::uint64_t>{128}));
  EXPECT_EQ(collect(6, 127), (std::vector<std::uint64_t>{}));
  EXPECT_EQ(collect(999, 1000), (std::vector<std::uint64_t>{999}));
  EXPECT_EQ(collect(500, 500), (std::vector<std::uint64_t>{}));
}

TEST(RangeIterationTest, AfterDeletesRangesFollowLogicalPositions) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 128;
  ShardedBitmap bm(512, opt);
  bm.Set(10);
  bm.Set(200);
  bm.Set(400);
  bm.Delete(0);  // everything shifts down by one
  std::vector<std::uint64_t> out;
  bm.ForEachSetBitInRange(0, bm.size(),
                          [&](std::uint64_t p) { out.push_back(p); });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{9, 199, 399}));
  out.clear();
  bm.ForEachSetBitInRange(100, 400,
                          [&](std::uint64_t p) { out.push_back(p); });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{199, 399}));
}

TEST(RangeIterationTest, RandomizedAgainstIsPatch) {
  Rng rng(31);
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 256;
  ShardedBitmap bm(4096, opt);
  std::set<std::uint64_t> expect;
  for (int i = 0; i < 800; ++i) {
    const auto p = rng.Uniform(0, 4095);
    bm.Set(p);
    expect.insert(p);
  }
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t lo = rng.Uniform(0, 4095);
    const std::uint64_t hi = rng.Uniform(lo, 4096);
    std::vector<std::uint64_t> got;
    bm.ForEachSetBitInRange(lo, hi,
                            [&](std::uint64_t p) { got.push_back(p); });
    std::vector<std::uint64_t> want;
    for (auto it = expect.lower_bound(lo); it != expect.end() && *it < hi;
         ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
  }
}

}  // namespace
}  // namespace patchindex
