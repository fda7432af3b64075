#include "patchindex/patch_set.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace patchindex {
namespace {

class PatchSetTest : public ::testing::TestWithParam<PatchSetDesign> {
 protected:
  std::unique_ptr<PatchSet> Make(std::uint64_t rows) {
    ShardedBitmapOptions opt;
    opt.shard_size_bits = 128;
    return PatchSet::Create(GetParam(), rows, opt);
  }
};

TEST_P(PatchSetTest, MarkAndQuery) {
  auto ps = Make(100);
  EXPECT_EQ(ps->NumRows(), 100u);
  EXPECT_EQ(ps->NumPatches(), 0u);
  ps->MarkPatch(3);
  ps->MarkPatch(97);
  ps->MarkPatch(3);  // idempotent
  EXPECT_EQ(ps->NumPatches(), 2u);
  EXPECT_TRUE(ps->IsPatch(3));
  EXPECT_TRUE(ps->IsPatch(97));
  EXPECT_FALSE(ps->IsPatch(4));
  EXPECT_EQ(ps->PatchRowIds(), (std::vector<RowId>{3, 97}));
  EXPECT_DOUBLE_EQ(ps->exception_rate(), 0.02);
}

TEST_P(PatchSetTest, AppendRowsGrowsDomain) {
  auto ps = Make(10);
  ps->OnAppendRows(5);
  EXPECT_EQ(ps->NumRows(), 15u);
  ps->MarkPatch(14);
  EXPECT_TRUE(ps->IsPatch(14));
}

TEST_P(PatchSetTest, DeleteDropsTrackingAndShiftsRowIds) {
  auto ps = Make(10);
  ps->MarkPatch(2);
  ps->MarkPatch(5);
  ps->MarkPatch(9);
  // Delete rows 2 (a patch) and 7 (not a patch): patch at 5 stays at 4
  // (one delete below), patch at 9 moves to 7 (two deletes below).
  ps->OnDeleteRows({2, 7});
  EXPECT_EQ(ps->NumRows(), 8u);
  EXPECT_EQ(ps->NumPatches(), 2u);
  EXPECT_EQ(ps->PatchRowIds(), (std::vector<RowId>{4, 7}));
}

TEST_P(PatchSetTest, DeleteAllPatches) {
  auto ps = Make(6);
  for (RowId r : {0ull, 1ull, 2ull}) ps->MarkPatch(r);
  ps->OnDeleteRows({0, 1, 2});
  EXPECT_EQ(ps->NumPatches(), 0u);
  EXPECT_EQ(ps->NumRows(), 3u);
}

TEST_P(PatchSetTest, CloneCopiesTheContainerAndStaysIndependent) {
  // Small shards and scattered deletes leave lost bits in the bitmap
  // design; the clone must reproduce the set exactly all the same.
  auto ps = Make(1000);
  Rng rng(99);
  for (int i = 0; i < 150; ++i) ps->MarkPatch(rng.Uniform(0, 999));
  std::set<RowId> victims;
  while (victims.size() < 120) victims.insert(rng.Uniform(0, 999));
  ps->OnDeleteRows(std::vector<RowId>(victims.begin(), victims.end()));
  ps->OnAppendRows(40);
  ps->MarkPatch(ps->NumRows() - 1);

  const std::unique_ptr<PatchSet> clone = ps->Clone();
  ASSERT_EQ(clone->design(), ps->design());
  ASSERT_EQ(clone->NumRows(), ps->NumRows());
  EXPECT_EQ(clone->NumPatches(), ps->NumPatches());
  EXPECT_EQ(clone->PatchRowIds(), ps->PatchRowIds());
  std::vector<bool> original_bits;
  for (RowId r = 0; r < ps->NumRows(); ++r) {
    ASSERT_EQ(clone->IsPatch(r), ps->IsPatch(r)) << "row " << r;
    original_bits.push_back(ps->IsPatch(r));
  }

  // Later maintenance on the original leaves the clone as it was.
  const std::vector<RowId> clone_ids = clone->PatchRowIds();
  const std::uint64_t clone_rows = clone->NumRows();
  RowId fresh = 0;
  while (ps->IsPatch(fresh)) ++fresh;
  ps->MarkPatch(fresh);
  ps->OnDeleteRows({0, 1, 2, 500});
  EXPECT_EQ(clone->NumRows(), clone_rows);
  EXPECT_EQ(clone->PatchRowIds(), clone_ids);
  EXPECT_EQ(clone->NumPatches(), clone_ids.size());
  for (RowId r = 0; r < clone_rows; ++r) {
    ASSERT_EQ(clone->IsPatch(r), original_bits[r]) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, PatchSetTest,
                         ::testing::Values(PatchSetDesign::kBitmap,
                                           PatchSetDesign::kIdentifier),
                         [](const auto& info) {
                           return info.param == PatchSetDesign::kBitmap
                                      ? "Bitmap"
                                      : "Identifier";
                         });

TEST(PatchSetEquivalenceTest, DesignsAgreeUnderRandomOps) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 256;
  auto a = PatchSet::Create(PatchSetDesign::kBitmap, 2000, opt);
  auto b = PatchSet::Create(PatchSetDesign::kIdentifier, 2000);
  Rng rng(99);
  for (int step = 0; step < 500; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    const std::uint64_t n = a->NumRows();
    if (op < 6 && n > 0) {
      const RowId r = rng.Uniform(0, n - 1);
      a->MarkPatch(r);
      b->MarkPatch(r);
    } else if (op < 8) {
      const std::uint64_t k = rng.Uniform(1, 20);
      a->OnAppendRows(k);
      b->OnAppendRows(k);
    } else if (n > 10) {
      std::set<RowId> kill;
      while (kill.size() < 5) kill.insert(rng.Uniform(0, n - 1));
      std::vector<RowId> rows(kill.begin(), kill.end());
      a->OnDeleteRows(rows);
      b->OnDeleteRows(rows);
    }
    ASSERT_EQ(a->NumRows(), b->NumRows());
    ASSERT_EQ(a->NumPatches(), b->NumPatches()) << "step " << step;
  }
  EXPECT_EQ(a->PatchRowIds(), b->PatchRowIds());
}

TEST(PatchSetMemoryTest, Table3CrossoverAtOneOver64) {
  // Paper §3.2/Table 3: the bitmap design wins for e >= 1/64.
  const std::uint64_t t = 1 << 20;
  ShardedBitmapOptions opt;  // default 2^14 shards
  auto bitmap = PatchSet::Create(PatchSetDesign::kBitmap, t, opt);
  auto ident = PatchSet::Create(PatchSetDesign::kIdentifier, t);
  // Mark e = 2% patches (above the 1/64 = 1.5625% crossover).
  for (std::uint64_t r = 0; r < t; r += 50) {
    bitmap->MarkPatch(r);
    ident->MarkPatch(r);
  }
  EXPECT_LT(bitmap->MemoryUsageBytes(), ident->MemoryUsageBytes());
  // Bitmap memory is ~ t/8 * 1.0039 bytes regardless of e.
  EXPECT_NEAR(static_cast<double>(bitmap->MemoryUsageBytes()),
              t / 8.0 * 1.0039, t / 8.0 * 0.05);
  // Identifier memory is ~ e * t * 8 bytes.
  EXPECT_GE(ident->MemoryUsageBytes(), (t / 50) * 8);
}

}  // namespace
}  // namespace patchindex
