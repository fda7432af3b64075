// Tests for checkpoint persistence (§3.4) and RLE compression (§7).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bitmap/rle.h"
#include "common/rng.h"
#include "patchindex/checkpoint.h"
#include "patchindex/manager.h"
#include "storage/fault_fs.h"

namespace patchindex {
namespace {

Schema KvSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

Table MakeTable(const std::vector<std::int64_t>& vals) {
  Table t(KvSchema());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    t.AppendRow(Row{{Value(static_cast<std::int64_t>(i)), Value(vals[i])}});
  }
  return t;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class CheckpointTest : public ::testing::TestWithParam<ConstraintKind> {};

TEST_P(CheckpointTest, RoundTripPreservesState) {
  Table t = MakeTable({1, 5, 2, 5, 3, 9, 4, 5});
  auto original = PatchIndex::Create(t, 1, GetParam());
  // Param-unique name: the three instances run as parallel ctest
  // processes and share the temp directory.
  const std::string path = TempPath(
      ("roundtrip." + std::to_string(static_cast<int>(GetParam())) + ".pidx")
          .c_str());
  ASSERT_TRUE(SavePatchIndexCheckpoint(*original, path).ok());

  auto loaded = LoadPatchIndexCheckpoint(path, t);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PatchIndex& restored = *loaded.value();
  EXPECT_EQ(restored.constraint(), original->constraint());
  EXPECT_EQ(restored.column(), original->column());
  EXPECT_EQ(restored.NumPatches(), original->NumPatches());
  EXPECT_EQ(restored.patches().PatchRowIds(),
            original->patches().PatchRowIds());
  EXPECT_EQ(restored.tail_value(), original->tail_value());
  EXPECT_EQ(restored.constant_value(), original->constant_value());
  EXPECT_TRUE(restored.CheckInvariant());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllConstraints, CheckpointTest,
                         ::testing::Values(ConstraintKind::kNearlyUnique,
                                           ConstraintKind::kNearlySorted,
                                           ConstraintKind::kNearlyConstant),
                         [](const auto& info) {
                           switch (info.param) {
                             case ConstraintKind::kNearlyUnique:
                               return "Nuc";
                             case ConstraintKind::kNearlySorted:
                               return "Nsc";
                             default:
                               return "Ncc";
                           }
                         });

TEST(CheckpointTest, RestoredIndexKeepsHandlingUpdates) {
  Table t = MakeTable({1, 2, 3, 4});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlySorted);
  const std::string path = TempPath("updates.pidx");
  ASSERT_TRUE(SavePatchIndexCheckpoint(*original, path).ok());
  original.reset();

  auto loaded = LoadPatchIndexCheckpoint(path, t);
  ASSERT_TRUE(loaded.ok());
  PatchIndex* idx = loaded.value().get();
  t.BufferInsert(Row{{Value(std::int64_t{4}), Value(std::int64_t{2})}});
  ASSERT_TRUE(idx->HandleUpdateQuery().ok());
  t.Checkpoint();
  ASSERT_TRUE(idx->AfterCheckpoint().ok());
  EXPECT_TRUE(idx->IsPatch(4));  // 2 < tail 4
  EXPECT_TRUE(idx->CheckInvariant());
  std::remove(path.c_str());
}

TEST(CheckpointTest, CardinalityMismatchIsRejected) {
  Table t = MakeTable({1, 2, 3});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique);
  const std::string path = TempPath("mismatch.pidx");
  ASSERT_TRUE(SavePatchIndexCheckpoint(*original, path).ok());
  // The table changes after the checkpoint.
  t.AppendRow(Row{{Value(std::int64_t{3}), Value(std::int64_t{4})}});
  auto loaded = LoadPatchIndexCheckpoint(path, t);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kConstraintViolation);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveThenCommitInvalidatesTheCheckpointPerPartition) {
  // §3.4: a checkpoint is only valid for the table state it was taken
  // from. After an update-commit changes a partition, loading that
  // partition's checkpoint must fail with kConstraintViolation; a fresh
  // save/load must agree with an index rebuilt from scratch. Exercised
  // per partition — indexes and checkpoints are partition-local.
  PartitionedTable pt(KvSchema(), 2);
  for (int i = 0; i < 40; ++i) {
    pt.AppendRow(
        Row{{Value(static_cast<std::int64_t>(i)),
             Value(static_cast<std::int64_t>(i % 2 == 0 ? i : 7))}});
  }
  PatchIndexManager mgr;
  std::vector<PatchIndex*> indexes =
      mgr.CreatePartitionedIndex(pt, 1, ConstraintKind::kNearlyUnique);
  ASSERT_EQ(indexes.size(), 2u);

  std::vector<std::string> paths;
  for (std::size_t p = 0; p < 2; ++p) {
    paths.push_back(TempPath(("percpart" + std::to_string(p) + ".pidx").c_str()));
    ASSERT_TRUE(SavePatchIndexCheckpoint(*indexes[p], paths[p]).ok());
  }

  // Commit an update through the manager: every partition changes.
  pt.BufferInsert(Row{{Value(std::int64_t{100}), Value(std::int64_t{7})}});
  pt.BufferInsert(Row{{Value(std::int64_t{101}), Value(std::int64_t{7})}});
  ASSERT_TRUE(mgr.CommitUpdateQuery(pt, nullptr).ok());

  for (std::size_t p = 0; p < 2; ++p) {
    // The pre-update checkpoint no longer matches the partition.
    auto stale = LoadPatchIndexCheckpoint(paths[p], pt.partition(p));
    ASSERT_FALSE(stale.ok()) << "partition " << p;
    EXPECT_EQ(stale.status().code(), StatusCode::kConstraintViolation);

    // A fresh save/load round-trip agrees with a rebuilt index.
    ASSERT_TRUE(SavePatchIndexCheckpoint(*indexes[p], paths[p]).ok());
    auto reloaded = LoadPatchIndexCheckpoint(paths[p], pt.partition(p));
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    auto rebuilt = PatchIndex::Create(pt.partition(p), 1,
                                      ConstraintKind::kNearlyUnique);
    EXPECT_EQ(reloaded.value()->patches().PatchRowIds(),
              rebuilt->patches().PatchRowIds());
    EXPECT_TRUE(reloaded.value()->CheckInvariant());
    std::remove(paths[p].c_str());
  }
}

// Fault-injection coverage of the checkpoint writer (the engine's
// durability layer reuses it per partition): every failure mode must
// leave an error for the caller and never a file a later Load would
// accept as a complete checkpoint.

TEST(CheckpointTest, FailedWriteReportsErrorAndLoadRejectsTheFile) {
  Table t = MakeTable({1, 2, 3, 4});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique);
  const std::string path = TempPath("failwrite.pidx");
  const FaultHook fail_write = [](const char* point) {
    return std::string_view(point) == "pidx_ckpt.write" ? FaultAction::kFail
                                                        : FaultAction::kNone;
  };
  EXPECT_FALSE(SavePatchIndexCheckpoint(*original, path, fail_write).ok());
  // kFail = clean ENOSPC before any byte: the file exists but is empty.
  auto loaded = LoadPatchIndexCheckpoint(path, t);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShortWriteReportsErrorAndLoadRejectsTheTornFile) {
  Table t = MakeTable({1, 5, 2, 5, 3, 9});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlySorted);
  const std::string path = TempPath("shortwrite.pidx");
  const FaultHook short_write = [](const char* point) {
    return std::string_view(point) == "pidx_ckpt.write"
               ? FaultAction::kShortWrite
               : FaultAction::kNone;
  };
  EXPECT_FALSE(SavePatchIndexCheckpoint(*original, path, short_write).ok());
  // The torn half-file must not load as a (wrong) index.
  auto loaded = LoadPatchIndexCheckpoint(path, t);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, FsyncFailureReportsError) {
  Table t = MakeTable({1, 2});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique);
  const std::string path = TempPath("failsync.pidx");
  const FaultHook fail_sync = [](const char* point) {
    return std::string_view(point) == "pidx_ckpt.fsync" ? FaultAction::kFail
                                                        : FaultAction::kNone;
  };
  // The content is fully written but not durable — the engine treats this
  // as a failed checkpoint and keeps the WAL instead.
  EXPECT_FALSE(SavePatchIndexCheckpoint(*original, path, fail_sync).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnwritablePathReportsError) {
  Table t = MakeTable({1, 2});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique);
  // A directory is not a writable file target.
  EXPECT_FALSE(
      SavePatchIndexCheckpoint(*original, ::testing::TempDir()).ok());
}

TEST(CheckpointTest, UnreadablePathReportsError) {
  Table t = MakeTable({1, 2});
  auto loaded = LoadPatchIndexCheckpoint(::testing::TempDir(), t);
  EXPECT_FALSE(loaded.ok());
}

TEST(CheckpointTest, MissingFile) {
  Table t = MakeTable({1});
  auto loaded = LoadPatchIndexCheckpoint(TempPath("nope.pidx"), t);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, GarbageFileIsRejected) {
  const std::string path = TempPath("garbage.pidx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  Table t = MakeTable({1});
  auto loaded = LoadPatchIndexCheckpoint(path, t);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileIsRejected) {
  Table t = MakeTable({1, 1, 2, 2});
  auto original = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique);
  const std::string path = TempPath("truncated.pidx");
  ASSERT_TRUE(SavePatchIndexCheckpoint(*original, path).ok());
  // Chop the last 8 bytes (one patch delta).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  auto loaded = LoadPatchIndexCheckpoint(path, t);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The CRC frame makes corruption a load error, never a restored index
// with a silently wrong patch set, tail or constant: every strict prefix
// and every single-bit flip of a saved checkpoint is rejected.
TEST(CheckpointTest, EveryTruncationAndBitFlipIsRejected) {
  Table t = MakeTable({7, 3, 7, 7, 9, 7, 1, 7, 7, 2, 7, 7});
  for (const ConstraintKind kind :
       {ConstraintKind::kNearlyUnique, ConstraintKind::kNearlySorted,
        ConstraintKind::kNearlyConstant}) {
    auto original = PatchIndex::Create(t, 1, kind);
    ASSERT_GT(original->NumPatches(), 0u);
    const std::string path = TempPath(
        ("sweep." + std::to_string(static_cast<int>(kind)) + ".pidx")
            .c_str());
    ASSERT_TRUE(SavePatchIndexCheckpoint(*original, path).ok());
    std::string saved;
    ASSERT_TRUE(ReadFileBytes(path, &saved).ok());
    const auto load_bytes = [&](const std::string& bytes) {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      EXPECT_NE(f, nullptr);
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
      return LoadPatchIndexCheckpoint(path, t);
    };
    ASSERT_TRUE(load_bytes(saved).ok());
    for (std::size_t cut = 0; cut < saved.size(); ++cut) {
      auto loaded = load_bytes(saved.substr(0, cut));
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "kind=" << static_cast<int>(kind) << " cut=" << cut;
    }
    for (std::size_t byte = 0; byte < saved.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = saved;
        mangled[byte] = static_cast<char>(mangled[byte] ^ (1u << bit));
        auto loaded = load_bytes(mangled);
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << "kind=" << static_cast<int>(kind) << " byte=" << byte
            << " bit=" << bit;
      }
    }
    // Trailing bytes after the frame are corruption too.
    EXPECT_EQ(load_bytes(saved + "x").status().code(),
              StatusCode::kInvalidArgument);
    std::remove(path.c_str());
  }
}

TEST(RleTest, RoundTripSparse) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 256;
  ShardedBitmap bm(10'000, opt);
  for (std::uint64_t p : {0ull, 5ull, 6ull, 7ull, 9'999ull}) bm.Set(p);
  RleBitmap rle = RleEncode(bm);
  ShardedBitmap back = RleDecode(rle, opt);
  ASSERT_EQ(back.size(), bm.size());
  EXPECT_EQ(back.SetBitPositions(), bm.SetBitPositions());
}

TEST(RleTest, EmptyAndFullBitmaps) {
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 128;
  ShardedBitmap empty(1000, opt);
  EXPECT_EQ(RleEncode(empty).runs, (std::vector<std::uint64_t>{1000}));
  EXPECT_EQ(RleDecode(RleEncode(empty), opt).CountSetBits(), 0u);

  ShardedBitmap full(1000, opt);
  for (std::uint64_t i = 0; i < 1000; ++i) full.Set(i);
  RleBitmap rle = RleEncode(full);
  EXPECT_EQ(rle.runs, (std::vector<std::uint64_t>{0, 1000}));
  EXPECT_EQ(RleDecode(rle, opt).CountSetBits(), 1000u);
}

TEST(RleTest, RandomRoundTrip) {
  Rng rng(55);
  ShardedBitmapOptions opt;
  opt.shard_size_bits = 512;
  for (int iter = 0; iter < 20; ++iter) {
    const std::uint64_t n = rng.Uniform(1, 5000);
    ShardedBitmap bm(n, opt);
    const double density = rng.NextDouble();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (rng.NextBool(density)) bm.Set(i);
    }
    ShardedBitmap back = RleDecode(RleEncode(bm), opt);
    ASSERT_EQ(back.SetBitPositions(), bm.SetBitPositions()) << iter;
  }
}

TEST(RleTest, CompressesLowExceptionRates) {
  // The §7 claim: RLE shrinks the bitmap especially for low e.
  ShardedBitmapOptions opt;
  ShardedBitmap bm(1'000'000, opt);
  for (std::uint64_t i = 0; i < 1'000'000; i += 10'000) bm.Set(i);  // e=0.01%
  RleBitmap rle = RleEncode(bm);
  EXPECT_LT(rle.CompressedBytes(), bm.MemoryUsageBytes() / 50);
}

}  // namespace
}  // namespace patchindex
