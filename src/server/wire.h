#ifndef PATCHINDEX_SERVER_WIRE_H_
#define PATCHINDEX_SERVER_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "storage/codec.h"
#include "storage/value.h"

namespace patchindex::net {

/// The SQL-over-TCP wire protocol shared by PiServer and PiClient.
///
/// Every message is one length-prefixed frame:
///
///   u32 LE length | u8 type | payload[length - 1]
///
/// where `length` counts the type byte plus the payload. Payloads are
/// written and read with the engine's one byte codec (storage/codec.h):
/// little-endian integers, doubles as their IEEE-754 bit pattern in a
/// u64, strings as `u32 length + bytes` (no terminator, UTF-8 agnostic),
/// values and column types with the codec's type tags.
///
/// A session is: client sends kHello (its protocol version), server
/// answers kWelcome (the negotiated version) or kError and closes. After
/// the handshake the client sends request frames (kQuery, kPrepare,
/// kExecute, kCloseStmt, kMeta, kGoodbye) and the server answers each
/// request with exactly one response sequence, in request order:
///
///   kQuery / kExecute -> kResultHeader, kRowBatch*, kResultEnd | kError
///   kPrepare          -> kPrepared | kError
///   kCloseStmt        -> kStmtClosed | kError
///   kMeta             -> kMetaResult | kError
///
/// Requests may be pipelined; the server bounds the per-connection queue
/// and answers over-limit requests with a kError frame carrying
/// StatusCode::kUnavailable (the SERVER_BUSY rejection) instead of
/// growing without bound.
/// Version history: v1 = the original frame set; v2 adds the phase-span
/// block to kResultHeader (u8 has_profile + 7 f64 phase milliseconds) so
/// remote clients can show the same `.timing` breakdown as local ones;
/// v3 moves value and column type bytes to the shared codec tags
/// (1/2/3 instead of the ColumnType enumerator 0/1/2); v4 lays a
/// kRowBatch out column by column (one block per column after the row
/// count) instead of row by row.
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Hard ceiling on one frame's size, both directions — a hostile or
/// corrupt length prefix must not turn into a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Row and byte caps per kRowBatch frame while streaming a result set:
/// a batch closes at whichever limit it hits first, so wide string rows
/// cannot push one frame toward kMaxFrameBytes.
inline constexpr std::size_t kRowsPerWireBatch = 4096;
inline constexpr std::size_t kWireBatchSoftBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 1,      // u32 protocol version
  kQuery = 2,      // string sql, params
  kPrepare = 3,    // string sql
  kExecute = 4,    // u64 statement id, params
  kCloseStmt = 5,  // u64 statement id
  kMeta = 6,       // string meta-command line (".tables", ".gen ...")
  kGoodbye = 7,    // empty; client is done

  // server -> client
  kWelcome = 16,       // u32 protocol version
  kResultHeader = 17,  // u64 rows_affected, u8 exec flags, profile, columns
  kRowBatch = 18,      // u32 row count, one block per column (below)
  kResultEnd = 19,     // u64 total streamed rows
  kError = 20,         // u8 status code, u32 line, u32 column, string msg
  kPrepared = 21,      // u64 statement id, u32 parameter count
  kStmtClosed = 22,    // empty
  kMetaResult = 23,    // string printable output
};

/// Bit flags of kResultHeader's exec byte — QueryResult's execution-path
/// booleans, so a remote client sees how its query ran.
inline constexpr std::uint8_t kExecParallel = 1u << 0;
inline constexpr std::uint8_t kExecParallelJoin = 1u << 1;
inline constexpr std::uint8_t kExecParallelSort = 1u << 2;

// ------------------------------------------------------------- frame I/O

/// One frame handed to WriteFrames; the payload is sent from where it
/// lies, not copied.
struct OutFrame {
  FrameType type;
  std::string_view payload;
};

/// The most frames one WriteFrames call takes: a result's header, one
/// row batch and its end frame.
inline constexpr std::size_t kMaxFramesPerWrite = 3;

/// Writes `frames` back to back to a connected socket with one sendmsg
/// (looping over partial writes), so a whole response of up to one row
/// batch is one syscall. Fails with kUnavailable when the peer has gone
/// away (EPIPE / ECONNRESET), kInternal on other socket errors.
Status WriteFrames(int fd, std::span<const OutFrame> frames);

/// WriteFrames with one frame.
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// Reads one frame, receiving its body straight into `payload`. A clean
/// EOF at a frame boundary yields kUnavailable ("connection closed by
/// peer"); EOF inside a frame, an oversized length prefix, or an unknown
/// socket error yield kInvalidArgument/kInternal.
Status ReadFrame(int fd, FrameType* type, std::string* payload);

// --------------------------------------------------- typed payload parts
//
// Encoders append to a payload string; decoders read through the shared
// ByteReader and return kOk or DecodeStatus's kInvalidArgument
// "malformed frame: ..." status.

/// kOk while `r` has read nothing short and met no bad type tag;
/// otherwise the "malformed frame" status every wire decoder returns.
Status DecodeStatus(const ByteReader& r);

/// A parameter list: u32 count + values (PutValue/GetValue).
void EncodeParams(std::string* out, const std::vector<Value>& params);
Status DecodeParams(ByteReader* r, std::vector<Value>* params);

/// kResultHeader payload from a QueryResult (everything but the rows).
void EncodeResultHeader(std::string* out, const QueryResult& result);
/// Fills names/types/rows_affected/flags back in; `result->rows` is reset
/// to the decoded column types, ready for DecodeRowBatch.
Status DecodeResultHeader(ByteReader* r, QueryResult* result);

/// Where the kRowBatch that starts at row `begin` of `rows` ends: it
/// closes at kRowsPerWireBatch rows or once its payload reaches
/// kWireBatchSoftBytes, whichever comes first. A row larger than the
/// soft cap still gets a batch of its own.
std::size_t WireBatchEnd(const Batch& rows, std::size_t begin);

/// kRowBatch payload for rows [begin, end) of `rows`, typed by the
/// batch's own column vectors (the decoder knows them from the header):
/// `u32 row count`, then one block per column in column order. An INT64
/// or DOUBLE block is `count x 8` little-endian bytes (PutBlock64); a
/// STRING block is `count x (u32 length + bytes)`.
void EncodeRowBatch(std::string* out, const Batch& rows, std::size_t begin,
                    std::size_t end);
/// Appends a kRowBatch's rows onto `rows` (already Reset to the header's
/// types). The whole batch is validated before anything is appended, so
/// a rejected payload leaves `rows` unchanged. Synthesizes sequential
/// rowIDs — server rowIDs are an engine detail that does not travel.
/// Bytes after the batch are left to the caller.
Status DecodeRowBatch(ByteReader* r, Batch* rows);

/// kError payload: u8 StatusCode, u32 line, u32 column (0,0 when the
/// error carries no source position), string message. The position is
/// extracted from the trailing "line L, column C" that the SQL front end
/// embeds in its messages, so structured clients need not parse text.
void EncodeError(std::string* out, const Status& status);
/// Reconstructs the Status (same code, same message — ToString output is
/// byte-identical across the wire). `line`/`column` may be null.
Status DecodeError(ByteReader* r, Status* status, std::uint32_t* line,
                   std::uint32_t* column);

/// Finds the last "line L, column C" occurrence in an error message.
/// Returns false (and leaves outputs untouched) when there is none.
bool ExtractSourceLoc(std::string_view message, std::uint32_t* line,
                      std::uint32_t* column);

}  // namespace patchindex::net

#endif  // PATCHINDEX_SERVER_WIRE_H_
