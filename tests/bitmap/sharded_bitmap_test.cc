// Tests for the sharded bitmap (paper §4): delete locality, start-value
// adaption, bulk delete, lost bits and condense, plus a randomized
// equivalence check against the ordinary bitmap.

#include "bitmap/sharded_bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace patchindex {
namespace {

ShardedBitmapOptions SmallShards(std::uint64_t shard_bits = 128,
                                 bool vectorized = false) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = shard_bits;
  opt.vectorized = vectorized;
  return opt;
}

TEST(ShardedBitmapTest, SetGetAcrossShards) {
  ShardedBitmap bm(1000, SmallShards());
  EXPECT_EQ(bm.num_shards(), 8u);  // ceil(1000/128)
  for (std::uint64_t i = 0; i < 1000; i += 13) bm.Set(i);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(bm.Get(i), i % 13 == 0) << i;
  }
}

TEST(ShardedBitmapTest, PaperFigure3Example) {
  // Figure 3: deleting the bit at position 5 moves the bit formerly at
  // position 26 to position 25, and the bit formerly at 6 to 5.
  ShardedBitmap bm(256, SmallShards());
  bm.Set(5);
  bm.Set(6);
  bm.Set(26);
  bm.Delete(5);
  EXPECT_EQ(bm.size(), 255u);
  EXPECT_TRUE(bm.Get(5));
  EXPECT_TRUE(bm.Get(25));
  EXPECT_FALSE(bm.Get(26));
}

TEST(ShardedBitmapTest, DeleteOnlyAffectsOneShardPhysically) {
  // A bit set in a later shard keeps its *physical* slot after a delete in
  // an earlier shard — only its logical position changes via start values.
  ShardedBitmap bm(512, SmallShards());
  bm.Set(300);  // shard 2
  bm.Delete(10);  // shard 0
  EXPECT_TRUE(bm.Get(299));   // logical position shifted down
  EXPECT_FALSE(bm.Get(300));
}

TEST(ShardedBitmapTest, DeleteInLastShard) {
  ShardedBitmap bm(300, SmallShards());
  bm.Set(299);
  bm.Delete(299);
  EXPECT_EQ(bm.size(), 299u);
  EXPECT_EQ(bm.CountSetBits(), 0u);
}

TEST(ShardedBitmapTest, LostBitsReduceUtilization) {
  ShardedBitmap bm(1024, SmallShards());
  EXPECT_DOUBLE_EQ(bm.Utilization(), 1.0);
  for (int i = 0; i < 100; ++i) bm.Delete(0);
  EXPECT_EQ(bm.size(), 924u);
  EXPECT_DOUBLE_EQ(bm.Utilization(), 924.0 / 1024.0);
}

TEST(ShardedBitmapTest, CondenseRestoresUtilizationAndPreservesContent) {
  ShardedBitmap bm(1024, SmallShards());
  Rng rng(3);
  std::set<std::uint64_t> set_positions;
  for (int i = 0; i < 200; ++i) set_positions.insert(rng.Uniform(0, 1023));
  for (auto p : set_positions) bm.Set(p);

  // Delete a scattering of bits one by one.
  for (std::uint64_t p : {900ull, 700ull, 500ull, 300ull, 100ull, 50ull}) {
    bm.Delete(p);
  }
  auto before = bm.SetBitPositions();
  const std::uint64_t size_before = bm.size();

  bm.Condense();
  EXPECT_EQ(bm.size(), size_before);
  EXPECT_EQ(bm.SetBitPositions(), before);
  EXPECT_DOUBLE_EQ(bm.Utilization(),
                   static_cast<double>(size_before) /
                       (bm.num_shards() * 128.0));
  // After condensing, every shard except the last is full again, so the
  // shard count shrinks to ceil(size/shard_bits).
  EXPECT_EQ(bm.num_shards(), (size_before + 127) / 128);
}

TEST(ShardedBitmapTest, AutoCondenseTriggers) {
  ShardedBitmapOptions opt = SmallShards();
  opt.auto_condense_threshold = 0.9;
  ShardedBitmap bm(1024, opt);
  for (int i = 0; i < 200; ++i) bm.Delete(0);
  // 824/1024 < 0.9 would have triggered condense; after condense the
  // capacity shrinks so utilization is back above the threshold.
  EXPECT_GE(bm.Utilization(), 0.9);
  EXPECT_EQ(bm.size(), 824u);
}

TEST(ShardedBitmapTest, BulkDeleteMatchesSingleDeletes) {
  Rng rng(17);
  ShardedBitmap bulk(4096, SmallShards());
  ShardedBitmap single(4096, SmallShards());
  for (int i = 0; i < 600; ++i) {
    const auto p = rng.Uniform(0, 4095);
    bulk.Set(p);
    single.Set(p);
  }
  std::set<std::uint64_t> kill_set;
  while (kill_set.size() < 300) kill_set.insert(rng.Uniform(0, 4095));
  std::vector<std::uint64_t> kill(kill_set.begin(), kill_set.end());

  bulk.BulkDelete(kill);
  for (auto it = kill.rbegin(); it != kill.rend(); ++it) single.Delete(*it);

  ASSERT_EQ(bulk.size(), single.size());
  EXPECT_EQ(bulk.SetBitPositions(), single.SetBitPositions());
}

TEST(ShardedBitmapTest, BulkDeleteParallelMatchesSerial) {
  Rng rng(23);
  ThreadPool pool(4);
  ShardedBitmapOptions par = SmallShards();
  par.pool = &pool;
  ShardedBitmap parallel(8192, par);
  ShardedBitmap serial(8192, SmallShards());
  for (int i = 0; i < 1000; ++i) {
    const auto p = rng.Uniform(0, 8191);
    parallel.Set(p);
    serial.Set(p);
  }
  std::set<std::uint64_t> kill_set;
  while (kill_set.size() < 500) kill_set.insert(rng.Uniform(0, 8191));
  std::vector<std::uint64_t> kill(kill_set.begin(), kill_set.end());
  parallel.BulkDelete(kill);
  serial.BulkDelete(kill);
  ASSERT_EQ(parallel.size(), serial.size());
  EXPECT_EQ(parallel.SetBitPositions(), serial.SetBitPositions());
}

TEST(ShardedBitmapTest, AppendGrowsAndOpensNewShards) {
  ShardedBitmap bm(100, SmallShards());
  EXPECT_EQ(bm.num_shards(), 1u);
  bm.Set(99);
  bm.Append(100);
  EXPECT_EQ(bm.size(), 200u);
  EXPECT_EQ(bm.num_shards(), 2u);
  EXPECT_TRUE(bm.Get(99));
  for (std::uint64_t i = 100; i < 200; ++i) EXPECT_FALSE(bm.Get(i)) << i;
  bm.Set(150);
  EXPECT_TRUE(bm.Get(150));
}

TEST(ShardedBitmapTest, AppendAfterDeletesReusesLostCapacity) {
  ShardedBitmap bm(256, SmallShards());
  for (std::uint64_t i = 0; i < 256; ++i) bm.Set(i);
  // Delete 10 bits from the last shard; its tail capacity is reusable.
  for (int i = 0; i < 10; ++i) bm.Delete(250 - i);
  EXPECT_EQ(bm.size(), 246u);
  bm.Append(5);
  EXPECT_EQ(bm.size(), 251u);
  EXPECT_EQ(bm.num_shards(), 2u);
  for (std::uint64_t i = 246; i < 251; ++i) EXPECT_FALSE(bm.Get(i)) << i;
}

TEST(ShardedBitmapTest, ShardingOverheadFormula) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 1ull << 14;
  ShardedBitmap bm(1 << 20, opt);
  // Paper §6.1: 64 / shard_size * 100% = 0.39% for 2^14-bit shards.
  EXPECT_NEAR(bm.ShardingOverheadPercent(), 0.390625, 1e-9);
}

TEST(ShardedBitmapTest, SequentialReaderMatchesRandomAccess) {
  ShardedBitmap bm(2048, SmallShards());
  Rng rng(5);
  for (int i = 0; i < 400; ++i) bm.Set(rng.Uniform(0, 2047));
  bm.Delete(100);
  bm.Delete(600);
  ShardedBitmap::SequentialReader reader(bm);
  for (std::uint64_t i = 0; i < bm.size(); ++i) {
    EXPECT_EQ(reader.Get(i), bm.Get(i)) << i;
  }
}

TEST(ShardedBitmapTest, ForEachSetBitAscending) {
  ShardedBitmap bm(1000, SmallShards());
  std::vector<std::uint64_t> want = {0, 127, 128, 129, 500, 999};
  for (auto p : want) bm.Set(p);
  EXPECT_EQ(bm.SetBitPositions(), want);
}

// Property test: a long random interleaving of set/unset/delete/append on
// the sharded bitmap matches the ordinary bitmap, for several shard sizes
// and both kernels.
struct EquivParam {
  std::uint64_t shard_bits;
  bool vectorized;
};

class ShardedEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(ShardedEquivalenceTest, RandomOpsMatchOrdinaryBitmap) {
  const auto param = GetParam();
  ShardedBitmapOptions opt;
  opt.shard_size_bits = param.shard_bits;
  opt.vectorized = param.vectorized;
  ShardedBitmap sharded(3000, opt);
  Bitmap plain(3000);
  Rng rng(param.shard_bits + (param.vectorized ? 1 : 0));

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t n = plain.size();
    const int op = static_cast<int>(rng.Uniform(0, 9));
    if (op < 4 && n > 0) {
      const auto p = rng.Uniform(0, n - 1);
      sharded.Set(p);
      plain.Set(p);
    } else if (op < 6 && n > 0) {
      const auto p = rng.Uniform(0, n - 1);
      sharded.Unset(p);
      plain.Unset(p);
    } else if (op < 9 && n > 1) {
      const auto p = rng.Uniform(0, n - 1);
      sharded.Delete(p);
      plain.Delete(p);
    } else {
      const auto k = rng.Uniform(1, 64);
      sharded.Append(k);
      plain.Append(k);
    }
  }
  ASSERT_EQ(sharded.size(), plain.size());
  for (std::uint64_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(sharded.Get(i), plain.Get(i)) << "bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardSizesAndKernels, ShardedEquivalenceTest,
    ::testing::Values(EquivParam{64, false}, EquivParam{128, false},
                      EquivParam{256, false}, EquivParam{1024, false},
                      EquivParam{128, true}, EquivParam{1024, true},
                      EquivParam{4096, true}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return (info.param.vectorized ? std::string("Avx2_") : "Scalar_") +
             std::to_string(info.param.shard_bits);
    });

}  // namespace
}  // namespace patchindex
