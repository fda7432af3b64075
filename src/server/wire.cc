#include "server/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>

namespace patchindex::net {

// ------------------------------------------------------------- frame I/O

namespace {

/// sendmsg() of `iov[0..count)` that survives EINTR and partial writes.
/// MSG_NOSIGNAL turns a dead peer into EPIPE instead of a process-killing
/// SIGPIPE — the server must outlive any one client.
Status SendAll(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("connection closed by peer");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped reading. Give up on the
        // connection rather than blocking a worker forever.
        return Status::Unavailable(
            "send timed out: peer is not reading its results");
      }
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    // Drop the buffers that went out whole; trim the one cut short.
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

/// recv() exactly `size` bytes. `*eof` reports a clean close before the
/// first byte; EOF mid-buffer is an error (a frame was cut off).
Status RecvAll(int fd, char* data, std::size_t size, bool* eof) {
  *eof = false;
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::Unavailable("connection closed by peer");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (the server arms one for the handshake so
        // a silent peer cannot park a reader thread forever).
        return Status::Unavailable("recv timed out");
      }
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) {
        *eof = true;
        return Status::Unavailable("connection closed by peer");
      }
      return Status::InvalidArgument("malformed frame: truncated stream");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrames(int fd, std::span<const OutFrame> frames) {
  if (frames.size() > kMaxFramesPerWrite) {
    return Status::InvalidArgument("too many frames for one write");
  }
  // Each frame is its 5-byte head plus its payload, sent in place.
  char heads[kMaxFramesPerWrite][5];
  iovec iov[2 * kMaxFramesPerWrite];
  std::size_t count = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string_view payload = frames[i].payload;
    if (payload.size() + 1 > kMaxFrameBytes) {
      return Status::InvalidArgument("frame exceeds kMaxFrameBytes");
    }
    const auto len = static_cast<std::uint32_t>(payload.size() + 1);
    for (int b = 0; b < 4; ++b) heads[i][b] = static_cast<char>(len >> (8 * b));
    heads[i][4] = static_cast<char>(frames[i].type);
    iov[count++] = {heads[i], sizeof heads[i]};
    if (!payload.empty()) {
      iov[count++] = {const_cast<char*>(payload.data()), payload.size()};
    }
  }
  return SendAll(fd, iov, count);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  const OutFrame frame{type, payload};
  return WriteFrames(fd, {&frame, 1});
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  // The length prefix and the type byte arrive together; EOF inside them
  // is a cut-off frame (RecvAll reports it as such).
  char head[5];
  bool eof = false;
  PIDX_RETURN_NOT_OK(RecvAll(fd, head, sizeof head, &eof));
  const std::uint32_t len =
      ByteReader(std::string_view(head, 4)).GetU32();
  if (len == 0 || len > kMaxFrameBytes) {
    return Status::InvalidArgument("malformed frame: bad length prefix");
  }
  *type = static_cast<FrameType>(static_cast<std::uint8_t>(head[4]));
  // The payload grows as its bytes arrive, one bounded chunk at a time,
  // so a length prefix alone never makes the process allocate (and
  // touch) the whole announced size.
  constexpr std::size_t kRecvChunkBytes = std::size_t{64} << 10;
  const std::size_t size = len - 1;
  payload->clear();
  while (payload->size() < size) {
    const std::size_t got = payload->size();
    const std::size_t chunk = std::min(kRecvChunkBytes, size - got);
    payload->resize(got + chunk);
    Status st = RecvAll(fd, payload->data() + got, chunk, &eof);
    if (!st.ok()) {
      // EOF after the head but before the whole payload is a cut-off
      // frame, not a clean close — a frame boundary is after the body.
      if (eof) {
        return Status::InvalidArgument("malformed frame: truncated stream");
      }
      return st;
    }
  }
  return Status::OK();
}

// --------------------------------------------------- typed payload parts

Status DecodeStatus(const ByteReader& r) {
  if (r.ok()) return Status::OK();
  return Status::InvalidArgument(
      "malformed frame: truncated payload or bad type tag");
}

void EncodeParams(std::string* out, const std::vector<Value>& params) {
  PutU32(out, static_cast<std::uint32_t>(params.size()));
  for (const Value& p : params) PutValue(out, p);
}

Status DecodeParams(ByteReader* r, std::vector<Value>* params) {
  const std::uint32_t count = r->GetU32();
  params->clear();
  for (std::uint32_t i = 0; i < count && r->ok(); ++i) {
    params->push_back(r->GetValue());
  }
  return DecodeStatus(*r);
}

void EncodeResultHeader(std::string* out, const QueryResult& result) {
  PutU64(out, result.rows_affected);
  std::uint8_t flags = 0;
  if (result.parallel) flags |= kExecParallel;
  if (result.parallel_join) flags |= kExecParallelJoin;
  if (result.parallel_sort) flags |= kExecParallelSort;
  PutU8(out, flags);
  // v2 phase-span block: the per-operator tree stays server-side (EXPLAIN
  // ANALYZE renders it into rows), but the phase breakdown travels so
  // remote `.timing` output matches local output.
  // Layout: the kPhases times in table order, then total_ms.
  if (result.profile != nullptr) {
    PutU8(out, 1);
    for (const obs::PhaseInfo& p : obs::kPhases) {
      PutF64(out, result.profile.get()->*p.ms);
    }
    PutF64(out, result.profile->total_ms);
  } else {
    PutU8(out, 0);
  }
  PutU32(out, static_cast<std::uint32_t>(result.rows.columns.size()));
  for (std::size_t c = 0; c < result.rows.columns.size(); ++c) {
    // DML results have no column names; SELECTs name every column.
    PutString(out, c < result.column_names.size() ? result.column_names[c]
                                                  : std::string());
    PutColumnType(out, result.rows.columns[c].type);
  }
}

Status DecodeResultHeader(ByteReader* r, QueryResult* result) {
  result->rows_affected = r->GetU64();
  const std::uint8_t flags = r->GetU8();
  result->parallel = (flags & kExecParallel) != 0;
  result->parallel_join = (flags & kExecParallelJoin) != 0;
  result->parallel_sort = (flags & kExecParallelSort) != 0;
  result->profile.reset();
  if (r->GetU8() != 0) {
    auto profile = std::make_shared<obs::QueryProfile>();
    for (const obs::PhaseInfo& p : obs::kPhases) {
      profile.get()->*p.ms = r->GetF64();
    }
    profile->total_ms = r->GetF64();
    result->profile = std::move(profile);
  }
  const std::uint32_t ncols = r->GetU32();
  result->column_names.clear();
  std::vector<ColumnType> types;
  for (std::uint32_t c = 0; c < ncols && r->ok(); ++c) {
    result->column_names.push_back(r->GetString());
    types.push_back(r->GetColumnType());
  }
  PIDX_RETURN_NOT_OK(DecodeStatus(*r));
  result->rows.Reset(types);
  return Status::OK();
}

std::size_t WireBatchEnd(const Batch& rows, std::size_t begin) {
  // Every row costs its fixed widths; string columns add their bytes.
  std::size_t fixed = 0;
  bool has_strings = false;
  for (const ColumnVector& col : rows.columns) {
    has_strings |= col.type == ColumnType::kString;
    fixed += col.type == ColumnType::kString ? 4 : 8;
  }
  const std::size_t limit =
      std::min(rows.num_rows(), begin + kRowsPerWireBatch);
  constexpr std::size_t kCountBytes = 4;
  if (!has_strings && fixed > 0) {
    // Rows are added while the payload is below the soft cap.
    const std::size_t by_bytes =
        (kWireBatchSoftBytes - kCountBytes + fixed - 1) / fixed;
    return std::min(limit, begin + by_bytes);
  }
  std::size_t end = begin;
  std::size_t bytes = kCountBytes;
  while (end < limit && bytes < kWireBatchSoftBytes) {
    bytes += fixed;
    for (const ColumnVector& col : rows.columns) {
      if (col.type == ColumnType::kString) bytes += col.str[end].size();
    }
    ++end;
  }
  return end;
}

void EncodeRowBatch(std::string* out, const Batch& rows, std::size_t begin,
                    std::size_t end) {
  const std::size_t n = end - begin;
  PutU32(out, static_cast<std::uint32_t>(n));
  for (const ColumnVector& col : rows.columns) {
    switch (col.type) {
      case ColumnType::kInt64:
        PutBlock64(out, col.i64.data() + begin, n);
        break;
      case ColumnType::kDouble:
        PutBlock64(out, col.f64.data() + begin, n);
        break;
      case ColumnType::kString:
        for (std::size_t r = begin; r < end; ++r) PutString(out, col.str[r]);
        break;
    }
  }
}

Status DecodeRowBatch(ByteReader* r, Batch* rows) {
  const std::uint32_t nrows = r->GetU32();
  PIDX_RETURN_NOT_OK(DecodeStatus(*r));
  // Bound the announced row count by the bytes actually present (every
  // cell takes at least its fixed part), so a corrupt count cannot turn
  // a tiny frame into a giant allocation — the same hardening the frame
  // length prefix gets.
  std::size_t min_row_bytes = 0;
  for (const ColumnVector& col : rows->columns) {
    min_row_bytes += col.type == ColumnType::kString ? 4 : 8;
  }
  if (nrows > 0 && min_row_bytes == 0) {
    return Status::InvalidArgument(
        "malformed frame: rows in a zero-column batch");
  }
  if (nrows > 0 && r->remaining() / min_row_bytes < nrows) {
    return Status::InvalidArgument(
        "malformed frame: row count exceeds payload");
  }
  // Take every column's block before appending anything: a fixed-width
  // block is `nrows x 8` bytes; a string block is measured by walking
  // its lengths on a copy of the reader. A short block fails the reader
  // and `rows` stays as it was.
  std::vector<std::string_view> blocks(rows->columns.size());
  for (std::size_t c = 0; c < blocks.size() && r->ok(); ++c) {
    std::size_t block_bytes = std::size_t{nrows} * 8;
    if (rows->columns[c].type == ColumnType::kString) {
      ByteReader walk = *r;
      for (std::uint32_t i = 0; i < nrows && walk.ok(); ++i) {
        walk.GetBytes(walk.GetU32());
      }
      if (!walk.ok()) return DecodeStatus(walk);
      block_bytes = r->remaining() - walk.remaining();
    }
    blocks[c] = r->GetBytes(block_bytes);
  }
  PIDX_RETURN_NOT_OK(DecodeStatus(*r));
  for (std::size_t c = 0; c < blocks.size(); ++c) {
    ColumnVector& col = rows->columns[c];
    switch (col.type) {
      case ColumnType::kInt64:
        col.i64.resize(col.i64.size() + nrows);
        GetBlock64(blocks[c], col.i64.data() + col.i64.size() - nrows);
        break;
      case ColumnType::kDouble:
        col.f64.resize(col.f64.size() + nrows);
        GetBlock64(blocks[c], col.f64.data() + col.f64.size() - nrows);
        break;
      case ColumnType::kString: {
        ByteReader cells(blocks[c]);
        for (std::uint32_t i = 0; i < nrows; ++i) {
          col.str.emplace_back(cells.GetBytes(cells.GetU32()));
        }
        break;
      }
    }
  }
  const std::size_t first = rows->row_ids.size();
  rows->row_ids.resize(first + nrows);
  std::iota(rows->row_ids.begin() + first, rows->row_ids.end(), first);
  return Status::OK();
}

bool ExtractSourceLoc(std::string_view message, std::uint32_t* line,
                      std::uint32_t* column) {
  // The SQL front end renders positions as "line L, column C" (see
  // SourceLoc::ToString); take the last occurrence so nested messages
  // point at the innermost position.
  const std::string_view kLine = "line ";
  const std::string_view kColumn = ", column ";
  std::size_t pos = message.rfind(kLine);
  while (pos != std::string_view::npos) {
    std::size_t p = pos + kLine.size();
    std::uint64_t l = 0;
    std::size_t digits = 0;
    while (p < message.size() && message[p] >= '0' && message[p] <= '9') {
      l = l * 10 + static_cast<std::uint64_t>(message[p] - '0');
      ++p;
      ++digits;
    }
    if (digits > 0 && message.compare(p, kColumn.size(), kColumn) == 0) {
      p += kColumn.size();
      std::uint64_t c = 0;
      std::size_t cdigits = 0;
      while (p < message.size() && message[p] >= '0' && message[p] <= '9') {
        c = c * 10 + static_cast<std::uint64_t>(message[p] - '0');
        ++p;
        ++cdigits;
      }
      if (cdigits > 0) {
        *line = static_cast<std::uint32_t>(l);
        *column = static_cast<std::uint32_t>(c);
        return true;
      }
    }
    if (pos == 0) break;
    pos = message.rfind(kLine, pos - 1);
  }
  return false;
}

void EncodeError(std::string* out, const Status& status) {
  PutU8(out, static_cast<std::uint8_t>(status.code()));
  std::uint32_t line = 0, column = 0;
  ExtractSourceLoc(status.message(), &line, &column);
  PutU32(out, line);
  PutU32(out, column);
  PutString(out, status.message());
}

Status DecodeError(ByteReader* r, Status* status, std::uint32_t* line,
                   std::uint32_t* column) {
  const std::uint8_t code = r->GetU8();
  const std::uint32_t l = r->GetU32();
  const std::uint32_t c = r->GetU32();
  std::string message = r->GetString();
  PIDX_RETURN_NOT_OK(DecodeStatus(*r));
  // kOk is no error: decoding it would turn the error frame into success.
  if (code == static_cast<std::uint8_t>(StatusCode::kOk) ||
      code > static_cast<std::uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("malformed frame: unknown status code");
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  if (line != nullptr) *line = l;
  if (column != nullptr) *column = c;
  return Status::OK();
}

}  // namespace patchindex::net
