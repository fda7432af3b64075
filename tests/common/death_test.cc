// Death tests: PIDX_CHECK violations must abort loudly rather than
// corrupt state silently. (PIDX_DCHECK-guarded hot paths are exercised in
// debug builds only.)

#include <gtest/gtest.h>

#include "bitmap/bitmap.h"
#include "bitmap/sharded_bitmap.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "optimizer/plan.h"
#include "patchindex/patch_set.h"

namespace patchindex {
namespace {

TEST(DeathTest, BitmapDeleteOutOfRangeAborts) {
  Bitmap bm(10);
  EXPECT_DEATH(bm.Delete(10), "CHECK failed");
}

TEST(DeathTest, ShardedBitmapDeleteOutOfRangeAborts) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 128;
  ShardedBitmap bm(10, opt);
  EXPECT_DEATH(bm.Delete(10), "CHECK failed");
}

TEST(DeathTest, ShardedBitmapRejectsNonPowerOfTwoShards) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 100;  // not a power of two
  EXPECT_DEATH(ShardedBitmap(1000, opt), "power of two");
}

TEST(DeathTest, MarkPatchBeyondDomainAborts) {
  auto ps = PatchSet::Create(PatchSetDesign::kIdentifier, 5);
  EXPECT_DEATH(ps->MarkPatch(5), "CHECK failed");
}

TEST(DeathTest, ExecutePlanOverPendingDeltasAborts) {
  // Plans read checkpointed tables only: a buffered delete must be
  // committed before any scan can see the table.
  Table t(Schema({{"k", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 4; ++i) t.AppendRow(Row{{Value(i)}});
  ASSERT_TRUE(t.BufferDelete(1).ok());
  LogicalPtr plan = LScan(t, {0});
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        ExecutePlan(*plan, pool);
      },
      "checkpointed tables only");
}

}  // namespace
}  // namespace patchindex
