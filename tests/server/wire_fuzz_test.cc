// Fuzz sweeps over the wire payload decoders and the socket framing, in
// the style of the WAL decoder sweeps: every valid sample is truncated at
// every byte, has every bit flipped once, and a fixed-seed batch of
// random payloads is decoded too. A decoder must either fail with a
// non-OK status or return a well-formed value; it must never crash or
// read past the payload. Each payload is decoded from a heap buffer of
// exactly its size, so an over-read is visible to AddressSanitizer.
// ReadFrame gets the same sweep over a socketpair.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "server/wire.h"

namespace patchindex::net {
namespace {

/// Runs `decode` on a copy of `bytes` in an allocation of exactly that
/// size. Returns the decoder's status; `*consumed` gets the bytes read.
Status DecodeExact(const std::string& bytes,
                   const std::function<Status(ByteReader*)>& decode,
                   std::size_t* consumed = nullptr) {
  std::unique_ptr<char[]> exact(new char[bytes.size()]);
  if (!bytes.empty()) std::memcpy(exact.get(), bytes.data(), bytes.size());
  ByteReader r(std::string_view(exact.get(), bytes.size()));
  Status st = decode(&r);
  if (consumed != nullptr) *consumed = bytes.size() - r.remaining();
  return st;
}

bool ValidType(ColumnType t) {
  return t == ColumnType::kInt64 || t == ColumnType::kDouble ||
         t == ColumnType::kString;
}

/// The column types the row-batch samples are decoded against.
std::vector<ColumnType> BatchTypes() {
  return {ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString};
}

/// Three rows of (INT64, DOUBLE, STRING); the first string is empty.
Batch SampleRows() {
  Batch rows;
  rows.Reset(BatchTypes());
  for (std::int64_t i = 0; i < 3; ++i) {
    rows.columns[0].i64.push_back(i * 1000 - 1);
    rows.columns[1].f64.push_back(0.5 * static_cast<double>(i));
    rows.columns[2].str.push_back(std::string(static_cast<std::size_t>(i),
                                              'x'));
    rows.row_ids.push_back(static_cast<RowId>(i));
  }
  return rows;
}

/// DecodeRowBatch plus its contract: an OK decode leaves equal column
/// lengths and rowIDs 0..n-1; a failed one leaves `out` as it was.
Status DecodeRowBatchChecked(ByteReader* r, Batch* out) {
  const Batch before = *out;
  Status st = DecodeRowBatch(r, out);
  const std::size_t n = out->row_ids.size();
  EXPECT_EQ(out->columns[0].i64.size(), n);
  EXPECT_EQ(out->columns[1].f64.size(), n);
  EXPECT_EQ(out->columns[2].str.size(), n);
  if (st.ok()) {
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out->row_ids[i], i);
  } else {
    EXPECT_EQ(out->row_ids, before.row_ids);
    EXPECT_EQ(out->columns[0].i64, before.columns[0].i64);
    // Bit for bit: decoded noise may hold NaNs, which never compare equal.
    const std::vector<double>& got = out->columns[1].f64;
    const std::vector<double>& want = before.columns[1].f64;
    EXPECT_TRUE(got.size() == want.size() &&
                (got.empty() || std::memcmp(got.data(), want.data(),
                                            got.size() * 8) == 0));
    EXPECT_EQ(out->columns[2].str, before.columns[2].str);
  }
  return st;
}

/// One decoder under test: a valid encoding and a decode that checks
/// the well-formedness of whatever it returns OK.
struct Target {
  std::string name;
  std::string sample;
  std::function<Status(ByteReader*)> decode;
};

std::vector<Target> Targets() {
  std::vector<Target> targets;

  {
    std::string w;
    PutValue(&w, Value(std::string("needle")));
    targets.push_back({"GetValue", w, [](ByteReader* r) {
                         const Value v = r->GetValue();
                         if (r->ok()) {
                           EXPECT_TRUE(ValidType(v.type()));
                         }
                         return DecodeStatus(*r);
                       }});
  }
  {
    std::string w;
    EncodeParams(&w, {Value(std::int64_t{-7}), Value(2.5),
                      Value(std::string("abc")), Value(std::string())});
    targets.push_back({"DecodeParams", w, [](ByteReader* r) {
                         std::vector<Value> params;
                         Status st = DecodeParams(r, &params);
                         if (st.ok()) {
                           for (const Value& v : params) {
                             EXPECT_TRUE(ValidType(v.type()));
                           }
                         }
                         return st;
                       }});
  }
  {
    QueryResult result;
    result.rows_affected = 3;
    result.parallel = true;
    result.profile = std::make_shared<obs::QueryProfile>();
    result.profile->execute_ms = 1.5;
    result.column_names = {"key", "score", "name"};
    result.rows.Reset(BatchTypes());
    std::string w;
    EncodeResultHeader(&w, result);
    targets.push_back(
        {"DecodeResultHeader", w, [](ByteReader* r) {
           QueryResult out;
           Status st = DecodeResultHeader(r, &out);
           if (st.ok()) {
             EXPECT_EQ(out.column_names.size(), out.rows.columns.size());
             EXPECT_EQ(out.rows.num_rows(), 0u);
             for (const ColumnVector& col : out.rows.columns) {
               EXPECT_TRUE(ValidType(col.type));
             }
           }
           return st;
         }});
  }
  {
    const Batch rows = SampleRows();
    std::string w;
    EncodeRowBatch(&w, rows, 0, rows.num_rows());
    targets.push_back({"DecodeRowBatch", w, [](ByteReader* r) {
                         Batch out;
                         out.Reset(BatchTypes());
                         return DecodeRowBatchChecked(r, &out);
                       }});
  }
  {
    // Two kRowBatch payloads back to back, decoded onto one Batch the
    // way a client appends a streamed result.
    const Batch rows = SampleRows();
    std::string w;
    EncodeRowBatch(&w, rows, 0, 1);
    EncodeRowBatch(&w, rows, 1, rows.num_rows());
    targets.push_back({"DecodeRowBatch x2", w, [](ByteReader* r) {
                         Batch out;
                         out.Reset(BatchTypes());
                         PIDX_RETURN_NOT_OK(DecodeRowBatchChecked(r, &out));
                         return DecodeRowBatchChecked(r, &out);
                       }});
  }
  {
    std::string w;
    EncodeError(&w, Status::InvalidArgument(
                        "unknown column 'x' at line 3, column 14"));
    targets.push_back({"DecodeError", w, [](ByteReader* r) {
                         Status remote;
                         std::uint32_t line = 0;
                         std::uint32_t column = 0;
                         Status st = DecodeError(r, &remote, &line, &column);
                         // An error frame always decodes to an error.
                         if (st.ok()) {
                           EXPECT_FALSE(remote.ok());
                         }
                         return st;
                       }});
  }
  return targets;
}

TEST(WireFuzzTest, ValidSamplesDecodeWhole) {
  for (const Target& t : Targets()) {
    std::size_t consumed = 0;
    EXPECT_TRUE(DecodeExact(t.sample, t.decode, &consumed).ok()) << t.name;
    EXPECT_EQ(consumed, t.sample.size()) << t.name;
  }
}

// Every field is length-prefixed or fixed-size, so no strict prefix of a
// valid encoding is itself a valid encoding.
TEST(WireFuzzTest, TruncationAtEveryByteFails) {
  for (const Target& t : Targets()) {
    for (std::size_t cut = 0; cut < t.sample.size(); ++cut) {
      std::size_t consumed = 0;
      EXPECT_FALSE(
          DecodeExact(t.sample.substr(0, cut), t.decode, &consumed).ok())
          << t.name << " cut=" << cut;
      EXPECT_LE(consumed, cut) << t.name << " cut=" << cut;
    }
  }
}

TEST(WireFuzzTest, SingleBitFlipFailsOrDecodesWellFormed) {
  for (const Target& t : Targets()) {
    for (std::size_t byte = 0; byte < t.sample.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = t.sample;
        mangled[byte] = static_cast<char>(mangled[byte] ^ (1u << bit));
        std::size_t consumed = 0;
        DecodeExact(mangled, t.decode, &consumed);
        EXPECT_LE(consumed, mangled.size())
            << t.name << " byte=" << byte << " bit=" << bit;
      }
    }
  }
}

TEST(WireFuzzTest, RandomPayloadsFailOrDecodeWellFormed) {
  Rng rng(4242);
  const std::vector<Target> targets = Targets();
  for (int iter = 0; iter < 2000; ++iter) {
    const Target& t = targets[static_cast<std::size_t>(iter) % targets.size()];
    const std::size_t len = rng.Uniform(0, 96);
    std::string junk;
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    // Every other payload keeps the sample's first bytes, so decoding gets
    // past the leading tag or count more often than pure noise would.
    if (iter % 2 == 0) {
      junk.replace(0, std::min(junk.size(), t.sample.size() / 2),
                   t.sample.substr(0, std::min(junk.size(),
                                               t.sample.size() / 2)));
    }
    std::size_t consumed = 0;
    DecodeExact(junk, t.decode, &consumed);
    EXPECT_LE(consumed, junk.size()) << t.name << " iter=" << iter;
  }
}

// ------------------------------------------------------------ ReadFrame

/// Feeds `stream` through a socketpair (written whole, then the writing
/// end closed) and reads frames until ReadFrame fails. Returns that
/// final status code; `*frames` gets the number of frames read.
StatusCode DrainFrames(const std::string& stream, std::size_t* frames) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::size_t sent = 0;
  while (sent < stream.size()) {
    const ssize_t n = ::write(fds[0], stream.data() + sent,
                              stream.size() - sent);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  *frames = 0;
  FrameType type;
  std::string payload;
  Status st;
  while ((st = ReadFrame(fds[1], &type, &payload)).ok()) {
    EXPECT_LT(payload.size(), kMaxFrameBytes);
    ++*frames;
  }
  ::close(fds[1]);
  return st.code();
}

/// A session's worth of frames as WriteFrame puts them on the socket,
/// plus the offsets where each frame ends.
std::string SampleStream(std::vector<std::size_t>* boundaries) {
  std::vector<std::pair<FrameType, std::string>> frames;
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  frames.emplace_back(FrameType::kHello, hello);
  std::string query;
  PutString(&query, "SELECT v FROM t WHERE k = ?");
  EncodeParams(&query, {Value(std::int64_t{7})});
  frames.emplace_back(FrameType::kQuery, query);
  frames.emplace_back(FrameType::kGoodbye, std::string());
  std::string error;
  EncodeError(&error, Status::InvalidArgument("bad at line 1, column 2"));
  frames.emplace_back(FrameType::kError, error);

  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string stream;
  for (const auto& [type, payload] : frames) {
    EXPECT_TRUE(WriteFrame(fds[0], type, payload).ok());
    char buf[256];
    std::size_t want = 5 + payload.size();
    while (want > 0) {
      const ssize_t n = ::read(fds[1], buf, std::min(sizeof buf, want));
      EXPECT_GT(n, 0);
      if (n <= 0) break;
      stream.append(buf, static_cast<std::size_t>(n));
      want -= static_cast<std::size_t>(n);
    }
    boundaries->push_back(stream.size());
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return stream;
}

bool Acceptable(StatusCode code) {
  return code == StatusCode::kInvalidArgument ||
         code == StatusCode::kUnavailable;
}

TEST(WireFuzzTest, ReadFrameReadsTheWholeSampleStream) {
  std::vector<std::size_t> boundaries;
  const std::string stream = SampleStream(&boundaries);
  std::size_t frames = 0;
  EXPECT_EQ(DrainFrames(stream, &frames), StatusCode::kUnavailable);
  EXPECT_EQ(frames, boundaries.size());
}

// A cut at a frame boundary is a clean close (kUnavailable); a cut inside
// a frame is a truncated stream (kInvalidArgument).
TEST(WireFuzzTest, ReadFrameTruncationAtEveryByte) {
  std::vector<std::size_t> boundaries;
  const std::string stream = SampleStream(&boundaries);
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    std::size_t frames = 0;
    const StatusCode code = DrainFrames(stream.substr(0, cut), &frames);
    const std::size_t whole = static_cast<std::size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), cut) -
        boundaries.begin());
    const bool at_boundary =
        cut == 0 || std::find(boundaries.begin(), boundaries.end(), cut) !=
                        boundaries.end();
    EXPECT_EQ(code, at_boundary ? StatusCode::kUnavailable
                                : StatusCode::kInvalidArgument)
        << "cut=" << cut;
    EXPECT_EQ(frames, whole) << "cut=" << cut;
  }
}

TEST(WireFuzzTest, ReadFrameSingleBitFlipEndsCleanly) {
  std::vector<std::size_t> boundaries;
  const std::string stream = SampleStream(&boundaries);
  for (std::size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = stream;
      mangled[byte] = static_cast<char>(mangled[byte] ^ (1u << bit));
      std::size_t frames = 0;
      const StatusCode code = DrainFrames(mangled, &frames);
      EXPECT_TRUE(Acceptable(code)) << "byte=" << byte << " bit=" << bit;
    }
  }
}

// A length prefix above kMaxFrameBytes is refused before any body is
// allocated or read.
TEST(WireFuzzTest, ReadFrameRefusesOversizedLengthPrefix) {
  for (const std::uint32_t len :
       {std::uint32_t{0}, kMaxFrameBytes + 1, std::uint32_t{0xffffffffu}}) {
    std::string stream;
    PutU32(&stream, len);
    stream.append(16, 'x');
    std::size_t frames = 0;
    EXPECT_EQ(DrainFrames(stream, &frames), StatusCode::kInvalidArgument)
        << len;
    EXPECT_EQ(frames, 0u);
  }
}

TEST(WireFuzzTest, ReadFrameRandomStreamsEndCleanly) {
  std::vector<std::size_t> boundaries;
  const std::string stream = SampleStream(&boundaries);
  Rng rng(777);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = rng.Uniform(0, 128);
    std::string junk;
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    // Every other stream starts with the sample's first whole frame, so
    // the reader gets past one frame boundary before the noise.
    if (iter % 2 == 0) junk = stream.substr(0, boundaries[0]) + junk;
    std::size_t frames = 0;
    EXPECT_TRUE(Acceptable(DrainFrames(junk, &frames))) << "iter=" << iter;
  }
}

}  // namespace
}  // namespace patchindex::net
