#include "server/wire.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace patchindex::net {

// ------------------------------------------------------------- frame I/O

namespace {

/// send() that survives EINTR and partial writes. MSG_NOSIGNAL turns a
/// dead peer into EPIPE instead of a process-killing SIGPIPE — the server
/// must outlive any one client.
Status SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
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
    data += n;
    size -= static_cast<std::size_t>(n);
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

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  std::string head;
  PutU32(&head, static_cast<std::uint32_t>(payload.size() + 1));
  PutU8(&head, static_cast<std::uint8_t>(type));
  // One send for the header keeps small frames in one TCP segment; the
  // payload follows separately to avoid copying result batches.
  PIDX_RETURN_NOT_OK(SendAll(fd, head.data(), head.size()));
  return SendAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  char head[4];
  bool eof = false;
  PIDX_RETURN_NOT_OK(RecvAll(fd, head, sizeof head, &eof));
  const std::uint32_t len =
      ByteReader(std::string_view(head, sizeof head)).GetU32();
  if (len == 0 || len > kMaxFrameBytes) {
    return Status::InvalidArgument("malformed frame: bad length prefix");
  }
  // The body grows as its bytes arrive, one bounded chunk at a time, so
  // a length prefix alone never makes the process allocate (and touch)
  // the whole announced size.
  constexpr std::size_t kRecvChunkBytes = std::size_t{64} << 10;
  std::string body;
  while (body.size() < len) {
    const std::size_t got = body.size();
    const std::size_t chunk = std::min<std::size_t>(kRecvChunkBytes, len - got);
    body.resize(got + chunk);
    Status st = RecvAll(fd, body.data() + got, chunk, &eof);
    if (!st.ok()) {
      // EOF after the header but before the body is a cut-off frame, not
      // a clean close — a frame boundary is after the body.
      if (eof) {
        return Status::InvalidArgument("malformed frame: truncated stream");
      }
      return st;
    }
  }
  *type = static_cast<FrameType>(static_cast<std::uint8_t>(body[0]));
  payload->assign(body, 1, body.size() - 1);
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

void EncodeRow(std::string* out, const Batch& rows, std::size_t r) {
  for (const ColumnVector& col : rows.columns) {
    switch (col.type) {
      case ColumnType::kInt64:
        PutI64(out, col.i64[r]);
        break;
      case ColumnType::kDouble:
        PutF64(out, col.f64[r]);
        break;
      case ColumnType::kString:
        PutString(out, col.str[r]);
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
  for (std::uint32_t i = 0; i < nrows && r->ok(); ++i) {
    for (ColumnVector& col : rows->columns) {
      switch (col.type) {
        case ColumnType::kInt64:
          col.i64.push_back(r->GetI64());
          break;
        case ColumnType::kDouble:
          col.f64.push_back(r->GetF64());
          break;
        case ColumnType::kString:
          col.str.push_back(r->GetString());
          break;
      }
    }
    rows->row_ids.push_back(rows->row_ids.size());
  }
  return DecodeStatus(*r);
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
