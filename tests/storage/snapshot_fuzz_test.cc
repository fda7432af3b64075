// Fuzz sweeps over the snapshot and manifest loaders, in the style of the
// WAL sweeps (wal_test.cc): a valid file is truncated at every byte, has
// every bit flipped once, and a fixed-seed batch of random files is
// loaded too. Both formats are one magic plus CRC frames with no torn
// tail to forgive, so every mangled file must be rejected — never a
// crash, an over-read or a table/manifest built from damaged bytes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/snapshot.h"

namespace patchindex {
namespace {

Schema MixedSchema() {
  return Schema({{"k", ColumnType::kInt64},
                 {"x", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/snapfuzz." + name + "." +
         std::to_string(::getpid());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// One loader under test: a valid file image and a load that reports
/// whether the bytes at `path` were accepted.
struct Target {
  std::string name;
  std::string image;
  std::function<bool(const std::string& path)> load;
};

std::vector<Target> Targets() {
  std::vector<Target> targets;
  {
    Table table(MixedSchema());
    for (std::int64_t i = 0; i < 6; ++i) {
      table.AppendRow(Row{{Value(i * 1000 - 3), Value(0.25 * i),
                           Value(std::string(static_cast<std::size_t>(i),
                                             'a'))}});
    }
    const std::string path = TempPath("snap");
    EXPECT_TRUE(SaveTableSnapshot(table, path).ok());
    std::string image;
    EXPECT_TRUE(ReadFileBytes(path, &image).ok());
    std::remove(path.c_str());
    targets.push_back({"LoadTableSnapshot", image, [](const std::string& p) {
                         return LoadTableSnapshot(p, MixedSchema()).ok();
                       }});
  }
  {
    SnapshotManifest manifest;
    manifest.csn = 41;
    manifest.partition_rows = {6, 0, 123456};
    const std::string path = TempPath("manifest");
    EXPECT_TRUE(SaveManifest(manifest, path).ok());
    std::string image;
    EXPECT_TRUE(ReadFileBytes(path, &image).ok());
    std::remove(path.c_str());
    targets.push_back({"LoadManifest", image, [](const std::string& p) {
                         return LoadManifest(p).ok();
                       }});
  }
  return targets;
}

TEST(SnapshotFuzzTest, ValidFilesLoad) {
  const std::string path = TempPath("valid");
  for (const Target& t : Targets()) {
    WriteBytes(path, t.image);
    EXPECT_TRUE(t.load(path)) << t.name;
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, TruncationAtEveryByteIsRejected) {
  const std::string path = TempPath("cut");
  for (const Target& t : Targets()) {
    for (std::size_t cut = 0; cut < t.image.size(); ++cut) {
      WriteBytes(path, t.image.substr(0, cut));
      EXPECT_FALSE(t.load(path)) << t.name << " cut=" << cut;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, SingleBitFlipIsRejected) {
  const std::string path = TempPath("flip");
  for (const Target& t : Targets()) {
    for (std::size_t byte = 0; byte < t.image.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = t.image;
        mangled[byte] = static_cast<char>(mangled[byte] ^ (1u << bit));
        WriteBytes(path, mangled);
        EXPECT_FALSE(t.load(path))
            << t.name << " byte=" << byte << " bit=" << bit;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, RandomFilesAreRejected) {
  const std::string path = TempPath("random");
  Rng rng(2024);
  const std::vector<Target> targets = Targets();
  for (int iter = 0; iter < 400; ++iter) {
    const Target& t = targets[static_cast<std::size_t>(iter) % targets.size()];
    const std::size_t len = rng.Uniform(0, 512);
    std::string junk;
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    // Every other file keeps the real magic and frame header, so loading
    // gets past the magic check and into the frame decoder.
    if (iter % 2 == 0) {
      const std::size_t keep = std::min<std::size_t>(junk.size(), 16);
      junk.replace(0, keep, t.image.substr(0, keep));
    }
    WriteBytes(path, junk);
    EXPECT_FALSE(t.load(path)) << t.name << " iter=" << iter;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace patchindex
