// WAL format tests: frame/record round-trips plus the torn-tail contract
// that crash recovery leans on — ParseWalFile must stop cleanly at the
// first invalid frame of ANY mangled input (truncated, bit-flipped,
// garbage-extended) and never yield a record that was not written intact.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/wal.h"

namespace patchindex {
namespace {

WalRecord SampleRecord(std::uint64_t csn) {
  WalRecord r;
  r.csn = csn;
  r.commit_partitions = 2;
  r.inserts.push_back(Row{{Value(std::int64_t{41}), Value(1.5),
                           Value(std::string("hello"))}});
  r.inserts.push_back(Row{{Value(std::int64_t{-7}), Value(-0.25),
                           Value(std::string(""))}});
  r.deletes = {3, 9};
  r.modifies.push_back(WalCell{5, 1, Value(std::int64_t{100})});
  r.modifies.push_back(WalCell{6, 2, Value(std::string("wal \0 bytes", 11))});
  return r;
}

std::string SampleFile(std::size_t num_records) {
  std::string data(WalMagic());
  WalHeader header;
  header.table = "orders";
  header.partition = 3;
  header.snapshot_csn = 10;
  AppendFrame(&data, EncodeWalHeader(header));
  for (std::size_t i = 0; i < num_records; ++i) {
    AppendFrame(&data, EncodeWalRecord(SampleRecord(11 + i)));
  }
  return data;
}

void ExpectSameRecord(const WalRecord& got, const WalRecord& want) {
  EXPECT_EQ(got.csn, want.csn);
  EXPECT_EQ(got.commit_partitions, want.commit_partitions);
  ASSERT_EQ(got.inserts.size(), want.inserts.size());
  for (std::size_t i = 0; i < want.inserts.size(); ++i) {
    EXPECT_EQ(got.inserts[i].cells, want.inserts[i].cells);
  }
  EXPECT_EQ(got.deletes, want.deletes);
  ASSERT_EQ(got.modifies.size(), want.modifies.size());
  for (std::size_t i = 0; i < want.modifies.size(); ++i) {
    EXPECT_EQ(got.modifies[i].row, want.modifies[i].row);
    EXPECT_EQ(got.modifies[i].column, want.modifies[i].column);
    EXPECT_EQ(got.modifies[i].value, want.modifies[i].value);
  }
}

TEST(WalFormatTest, RecordRoundTrip) {
  const WalRecord original = SampleRecord(42);
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(original), &decoded).ok());
  ExpectSameRecord(decoded, original);
}

TEST(WalFormatTest, EmptyRecordRoundTrip) {
  WalRecord original;
  original.csn = 1;
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(original), &decoded).ok());
  ExpectSameRecord(decoded, original);
}

TEST(WalFormatTest, HeaderRoundTrip) {
  WalHeader original;
  original.table = "lineitem";
  original.partition = 7;
  original.snapshot_csn = 123456789;
  WalHeader decoded;
  ASSERT_TRUE(DecodeWalHeader(EncodeWalHeader(original), &decoded).ok());
  EXPECT_EQ(decoded.table, original.table);
  EXPECT_EQ(decoded.partition, original.partition);
  EXPECT_EQ(decoded.snapshot_csn, original.snapshot_csn);
}

TEST(WalFormatTest, RecordRejectsZeroCommitPartitions) {
  WalRecord bad;
  bad.csn = 1;
  bad.commit_partitions = 0;
  WalRecord decoded;
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(bad), &decoded).ok());
}

TEST(WalFormatTest, RecordRejectsTrailingBytes) {
  std::string payload = EncodeWalRecord(SampleRecord(1));
  payload.push_back('\0');
  WalRecord decoded;
  EXPECT_FALSE(DecodeWalRecord(payload, &decoded).ok());
}

TEST(WalFormatTest, OversizedFrameLengthIsInvalid) {
  // A frame whose length field exceeds the payload cap must read as the
  // torn tail, not as an allocation request.
  std::string data;
  PutU32(&data, kMaxFramePayloadBytes + 1);
  PutU32(&data, 0);
  data.append(16, 'x');
  std::size_t offset = 0;
  std::string_view payload;
  EXPECT_FALSE(NextFrame(data, &offset, &payload));
  EXPECT_EQ(offset, 0u);
}

TEST(WalFormatTest, FrameCrcMismatchIsInvalid) {
  std::string data;
  AppendFrame(&data, "payload");
  data.back() ^= 0x01;
  std::size_t offset = 0;
  std::string_view payload;
  EXPECT_FALSE(NextFrame(data, &offset, &payload));
}

TEST(WalParseTest, WellFormedFileParsesClean) {
  const std::string data = SampleFile(3);
  WalContents contents = ParseWalFile(data);
  ASSERT_TRUE(contents.header_valid);
  EXPECT_TRUE(contents.clean);
  EXPECT_EQ(contents.valid_bytes, data.size());
  EXPECT_EQ(contents.header.table, "orders");
  EXPECT_EQ(contents.header.partition, 3u);
  EXPECT_EQ(contents.header.snapshot_csn, 10u);
  ASSERT_EQ(contents.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ExpectSameRecord(contents.records[i], SampleRecord(11 + i));
  }
}

TEST(WalParseTest, HeaderOnlyFileIsCleanAndEmpty) {
  WalContents contents = ParseWalFile(SampleFile(0));
  ASSERT_TRUE(contents.header_valid);
  EXPECT_TRUE(contents.clean);
  EXPECT_TRUE(contents.records.empty());
}

TEST(WalParseTest, BadMagicInvalidatesHeader) {
  std::string data = SampleFile(2);
  data[0] ^= 0xFF;
  WalContents contents = ParseWalFile(data);
  EXPECT_FALSE(contents.header_valid);
  EXPECT_TRUE(contents.records.empty());
}

TEST(WalParseTest, EmptyAndTinyFilesInvalidateHeader) {
  EXPECT_FALSE(ParseWalFile("").header_valid);
  EXPECT_FALSE(ParseWalFile("PIWAL").header_valid);
  EXPECT_FALSE(ParseWalFile(WalMagic()).header_valid);
}

// The torn-tail sweep: truncating the file at EVERY byte boundary must
// yield exactly the records whose frames survived whole, parse as
// not-clean (unless the cut lands on a frame boundary), and report
// valid_bytes at the last intact frame end.
TEST(WalParseTest, TruncationAtEveryByteStopsAtLastWholeFrame) {
  const std::string data = SampleFile(3);
  // Frame boundaries: magic end, header end, then each record end.
  std::vector<std::size_t> boundaries;
  boundaries.push_back(WalMagic().size());
  {
    std::size_t offset = WalMagic().size();
    std::string_view payload;
    while (NextFrame(data, &offset, &payload)) boundaries.push_back(offset);
  }
  ASSERT_EQ(boundaries.size(), 5u);  // magic + header + 3 records

  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    WalContents contents = ParseWalFile(data.substr(0, cut));
    // Records readable = number of record frames fully below the cut.
    std::size_t whole = 0;
    for (std::size_t b = 2; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) ++whole;
    }
    if (cut < boundaries[1]) {
      EXPECT_FALSE(contents.header_valid) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(contents.header_valid) << "cut=" << cut;
    ASSERT_EQ(contents.records.size(), whole) << "cut=" << cut;
    for (std::size_t i = 0; i < whole; ++i) {
      ExpectSameRecord(contents.records[i], SampleRecord(11 + i));
    }
    // valid_bytes points at the end of the last whole frame.
    EXPECT_EQ(contents.valid_bytes, boundaries[whole + 1]) << "cut=" << cut;
    EXPECT_EQ(contents.clean, cut == boundaries[whole + 1]) << "cut=" << cut;
  }
}

// Bit-flip sweep: flipping one bit anywhere in the file must never crash
// and never produce a record different from one that was written — the
// CRC catches payload damage, so a surviving record is byte-identical to
// an original (frames after the flip are discarded as the torn tail).
TEST(WalParseTest, SingleBitFlipNeverYieldsACorruptRecord) {
  const std::string data = SampleFile(3);
  std::vector<std::string> originals;
  for (std::size_t i = 0; i < 3; ++i) {
    originals.push_back(EncodeWalRecord(SampleRecord(11 + i)));
  }
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = data;
      mangled[byte] = static_cast<char>(mangled[byte] ^ (1u << bit));
      WalContents contents = ParseWalFile(mangled);
      ASSERT_LE(contents.records.size(), 3u);
      for (const WalRecord& r : contents.records) {
        EXPECT_EQ(EncodeWalRecord(r), originals[r.csn - 11])
            << "byte=" << byte << " bit=" << bit;
      }
      ASSERT_LE(contents.valid_bytes, mangled.size());
    }
  }
}

TEST(WalParseTest, GarbageExtensionKeepsAllRealRecords) {
  const std::string data = SampleFile(2);
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    std::string extended = data;
    const std::size_t extra = rng.Uniform(1, 200);
    for (std::size_t i = 0; i < extra; ++i) {
      extended.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    WalContents contents = ParseWalFile(extended);
    ASSERT_TRUE(contents.header_valid) << iter;
    // Garbage can only ADD (rarely, if it forms a valid frame that decodes
    // as a record) — never lose or change the real records.
    ASSERT_GE(contents.records.size(), 2u) << iter;
    ExpectSameRecord(contents.records[0], SampleRecord(11));
    ExpectSameRecord(contents.records[1], SampleRecord(12));
    EXPECT_GE(contents.valid_bytes, data.size()) << iter;
  }
}

TEST(WalParseTest, RandomGarbageFilesNeverCrash) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng.Uniform(0, 4096);
    std::string junk;
    junk.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    // Half the iterations get a real magic so parsing reaches the frame
    // loop instead of bailing on the magic check.
    if (iter % 2 == 0 && junk.size() >= 8) {
      junk.replace(0, 8, WalMagic());
    }
    WalContents contents = ParseWalFile(junk);
    EXPECT_LE(contents.valid_bytes, junk.size());
  }
}

// A frame that passes the CRC but whose payload fails structural decoding
// (e.g. a truncated record written whole by a buggy writer) is also the
// torn tail: ParseWalFile stops there rather than skipping it, because
// nothing after an undecodable record can be ordered reliably.
TEST(WalParseTest, UndecodablePayloadFrameEndsTheLog) {
  std::string data = SampleFile(1);
  const std::size_t before = data.size();
  AppendFrame(&data, "not a record");
  AppendFrame(&data, EncodeWalRecord(SampleRecord(12)));
  WalContents contents = ParseWalFile(data);
  ASSERT_TRUE(contents.header_valid);
  ASSERT_EQ(contents.records.size(), 1u);
  ExpectSameRecord(contents.records[0], SampleRecord(11));
  EXPECT_FALSE(contents.clean);
  EXPECT_EQ(contents.valid_bytes, before);
}

}  // namespace
}  // namespace patchindex
