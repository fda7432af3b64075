#include "server/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace patchindex::net {

void WireWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutF64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

namespace {

Status Truncated() {
  return Status::InvalidArgument("malformed frame: truncated payload");
}

}  // namespace

Status WireReader::GetU8(std::uint8_t* v) {
  if (buf_.size() - pos_ < 1) return Truncated();
  *v = static_cast<std::uint8_t>(buf_[pos_++]);
  return Status::OK();
}

Status WireReader::GetU32(std::uint32_t* v) {
  if (buf_.size() - pos_ < 4) return Truncated();
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::GetU64(std::uint64_t* v) {
  if (buf_.size() - pos_ < 8) return Truncated();
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::GetI64(std::int64_t* v) {
  std::uint64_t u;
  PIDX_RETURN_NOT_OK(GetU64(&u));
  *v = static_cast<std::int64_t>(u);
  return Status::OK();
}

Status WireReader::GetF64(double* v) {
  std::uint64_t bits;
  PIDX_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof *v);
  return Status::OK();
}

Status WireReader::GetString(std::string* s) {
  std::uint32_t len;
  PIDX_RETURN_NOT_OK(GetU32(&len));
  if (len > kMaxFrameBytes || buf_.size() - pos_ < len) return Truncated();
  s->assign(buf_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

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
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size() + 1);
  for (int i = 0; i < 4; ++i) {
    head.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  head.push_back(static_cast<char>(type));
  // One send for the header keeps small frames in one TCP segment; the
  // payload follows separately to avoid copying result batches.
  PIDX_RETURN_NOT_OK(SendAll(fd, head.data(), head.size()));
  return SendAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  char head[4];
  bool eof = false;
  PIDX_RETURN_NOT_OK(RecvAll(fd, head, sizeof head, &eof));
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(head[i]))
           << (8 * i);
  }
  if (len == 0 || len > kMaxFrameBytes) {
    return Status::InvalidArgument("malformed frame: bad length prefix");
  }
  std::string body(len, '\0');
  Status st = RecvAll(fd, body.data(), body.size(), &eof);
  if (!st.ok()) {
    // EOF after the header but before the body is a cut-off frame, not
    // a clean close — a frame boundary is after the body.
    if (eof) {
      return Status::InvalidArgument("malformed frame: truncated stream");
    }
    return st;
  }
  *type = static_cast<FrameType>(static_cast<std::uint8_t>(body[0]));
  payload->assign(body, 1, body.size() - 1);
  return Status::OK();
}

// --------------------------------------------------- typed payload parts

void EncodeValue(WireWriter* w, const Value& v) {
  w->PutU8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ColumnType::kInt64:
      w->PutI64(v.AsInt64());
      break;
    case ColumnType::kDouble:
      w->PutF64(v.AsDouble());
      break;
    case ColumnType::kString:
      w->PutString(v.AsString());
      break;
  }
}

Status DecodeValue(WireReader* r, Value* v) {
  std::uint8_t tag;
  PIDX_RETURN_NOT_OK(r->GetU8(&tag));
  switch (static_cast<ColumnType>(tag)) {
    case ColumnType::kInt64: {
      std::int64_t i;
      PIDX_RETURN_NOT_OK(r->GetI64(&i));
      *v = Value(i);
      return Status::OK();
    }
    case ColumnType::kDouble: {
      double d;
      PIDX_RETURN_NOT_OK(r->GetF64(&d));
      *v = Value(d);
      return Status::OK();
    }
    case ColumnType::kString: {
      std::string s;
      PIDX_RETURN_NOT_OK(r->GetString(&s));
      *v = Value(std::move(s));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("malformed frame: unknown value type");
}

void EncodeParams(WireWriter* w, const std::vector<Value>& params) {
  w->PutU32(static_cast<std::uint32_t>(params.size()));
  for (const Value& p : params) EncodeValue(w, p);
}

Status DecodeParams(WireReader* r, std::vector<Value>* params) {
  std::uint32_t count;
  PIDX_RETURN_NOT_OK(r->GetU32(&count));
  params->clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    Value v;
    PIDX_RETURN_NOT_OK(DecodeValue(r, &v));
    params->push_back(std::move(v));
  }
  return Status::OK();
}

void EncodeResultHeader(WireWriter* w, const QueryResult& result) {
  w->PutU64(result.rows_affected);
  std::uint8_t flags = 0;
  if (result.parallel) flags |= kExecParallel;
  if (result.parallel_join) flags |= kExecParallelJoin;
  if (result.parallel_sort) flags |= kExecParallelSort;
  w->PutU8(flags);
  // v2 phase-span block: the per-operator tree stays server-side (EXPLAIN
  // ANALYZE renders it into rows), but the phase breakdown travels so
  // remote `.timing` output matches local output.
  // Layout: the kPhases times in table order, then total_ms.
  if (result.profile != nullptr) {
    w->PutU8(1);
    for (const obs::PhaseInfo& p : obs::kPhases) {
      w->PutF64(result.profile.get()->*p.ms);
    }
    w->PutF64(result.profile->total_ms);
  } else {
    w->PutU8(0);
  }
  w->PutU32(static_cast<std::uint32_t>(result.rows.columns.size()));
  for (std::size_t c = 0; c < result.rows.columns.size(); ++c) {
    // DML results have no column names; SELECTs name every column.
    w->PutString(c < result.column_names.size() ? result.column_names[c]
                                                : std::string());
    w->PutU8(static_cast<std::uint8_t>(result.rows.columns[c].type));
  }
}

Status DecodeResultHeader(WireReader* r, QueryResult* result) {
  PIDX_RETURN_NOT_OK(r->GetU64(&result->rows_affected));
  std::uint8_t flags;
  PIDX_RETURN_NOT_OK(r->GetU8(&flags));
  result->parallel = (flags & kExecParallel) != 0;
  result->parallel_join = (flags & kExecParallelJoin) != 0;
  result->parallel_sort = (flags & kExecParallelSort) != 0;
  std::uint8_t has_profile;
  PIDX_RETURN_NOT_OK(r->GetU8(&has_profile));
  result->profile.reset();
  if (has_profile != 0) {
    auto profile = std::make_shared<obs::QueryProfile>();
    for (const obs::PhaseInfo& p : obs::kPhases) {
      PIDX_RETURN_NOT_OK(r->GetF64(&(profile.get()->*p.ms)));
    }
    PIDX_RETURN_NOT_OK(r->GetF64(&profile->total_ms));
    result->profile = std::move(profile);
  }
  std::uint32_t ncols;
  PIDX_RETURN_NOT_OK(r->GetU32(&ncols));
  result->column_names.clear();
  std::vector<ColumnType> types;
  for (std::uint32_t c = 0; c < ncols; ++c) {
    std::string name;
    PIDX_RETURN_NOT_OK(r->GetString(&name));
    result->column_names.push_back(std::move(name));
    std::uint8_t tag;
    PIDX_RETURN_NOT_OK(r->GetU8(&tag));
    if (tag > static_cast<std::uint8_t>(ColumnType::kString)) {
      return Status::InvalidArgument("malformed frame: unknown column type");
    }
    types.push_back(static_cast<ColumnType>(tag));
  }
  result->rows.Reset(types);
  return Status::OK();
}

void EncodeRow(WireWriter* w, const Batch& rows, std::size_t r) {
  for (const ColumnVector& col : rows.columns) {
    switch (col.type) {
      case ColumnType::kInt64:
        w->PutI64(col.i64[r]);
        break;
      case ColumnType::kDouble:
        w->PutF64(col.f64[r]);
        break;
      case ColumnType::kString:
        w->PutString(col.str[r]);
        break;
    }
  }
}

Status DecodeRowBatch(WireReader* r, Batch* rows) {
  std::uint32_t nrows;
  PIDX_RETURN_NOT_OK(r->GetU32(&nrows));
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
  for (std::uint32_t i = 0; i < nrows; ++i) {
    for (ColumnVector& col : rows->columns) {
      switch (col.type) {
        case ColumnType::kInt64: {
          std::int64_t v;
          PIDX_RETURN_NOT_OK(r->GetI64(&v));
          col.i64.push_back(v);
          break;
        }
        case ColumnType::kDouble: {
          double v;
          PIDX_RETURN_NOT_OK(r->GetF64(&v));
          col.f64.push_back(v);
          break;
        }
        case ColumnType::kString: {
          std::string v;
          PIDX_RETURN_NOT_OK(r->GetString(&v));
          col.str.push_back(std::move(v));
          break;
        }
      }
    }
    rows->row_ids.push_back(rows->row_ids.size());
  }
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

void EncodeError(WireWriter* w, const Status& status) {
  w->PutU8(static_cast<std::uint8_t>(status.code()));
  std::uint32_t line = 0, column = 0;
  ExtractSourceLoc(status.message(), &line, &column);
  w->PutU32(line);
  w->PutU32(column);
  w->PutString(status.message());
}

Status DecodeError(WireReader* r, Status* status, std::uint32_t* line,
                   std::uint32_t* column) {
  std::uint8_t code;
  PIDX_RETURN_NOT_OK(r->GetU8(&code));
  std::uint32_t l, c;
  PIDX_RETURN_NOT_OK(r->GetU32(&l));
  PIDX_RETURN_NOT_OK(r->GetU32(&c));
  std::string message;
  PIDX_RETURN_NOT_OK(r->GetString(&message));
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
