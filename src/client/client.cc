#include "client/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "server/wire.h"

namespace patchindex::net {

PiClient::~PiClient() { Close(); }

PiClient::PiClient(PiClient&& other) noexcept
    : fd_(other.fd_),
      last_error_line_(other.last_error_line_),
      last_error_column_(other.last_error_column_) {
  other.fd_ = -1;
}

PiClient& PiClient::operator=(PiClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    last_error_line_ = other.last_error_line_;
    last_error_column_ = other.last_error_column_;
    other.fd_ = -1;
  }
  return *this;
}

Status PiClient::Connect(const std::string& host, std::uint16_t port) {
  Close();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve '" + host +
                               "': " + gai_strerror(rc));
  }
  Status last = Status::Unavailable("no usable address for '" + host + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Status::Unavailable("cannot connect to " + host + ":" +
                                 service + ": " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    break;
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) return last;

  // Handshake.
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  Status st = WriteFrame(fd_, FrameType::kHello, hello);
  if (!st.ok()) return Fail(std::move(st));
  std::string payload;
  st = ReadResponse(static_cast<std::uint8_t>(FrameType::kWelcome),
                    &payload);
  if (!st.ok()) return Fail(std::move(st));
  ByteReader r(payload);
  const std::uint32_t version = r.GetU32();
  if (!r.ok()) return Fail(DecodeStatus(r));
  if (version != kProtocolVersion) {
    return Fail(Status::InvalidArgument(
        "server answered protocol version " + std::to_string(version) +
        ", client speaks " + std::to_string(kProtocolVersion)));
  }
  return Status::OK();
}

void PiClient::Close() {
  if (fd_ < 0) return;
  // Best effort: a Goodbye lets the server retire the connection without
  // counting a dropped peer.
  (void)WriteFrame(fd_, FrameType::kGoodbye, {});
  ::close(fd_);
  fd_ = -1;
}

Status PiClient::Fail(Status status) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return status;
}

Status PiClient::SendRequest(std::uint8_t type, const std::string& payload) {
  last_error_line_ = 0;
  last_error_column_ = 0;
  if (fd_ < 0) return Status::Unavailable("not connected");
  Status st = WriteFrame(fd_, static_cast<FrameType>(type), payload);
  if (!st.ok()) return Fail(std::move(st));
  return Status::OK();
}

/// Reads the next response frame. A kError frame becomes that error
/// (with the structured position captured); a transport failure or an
/// unexpected frame type closes the connection.
Status PiClient::ReadResponse(std::uint8_t expect, std::string* payload) {
  FrameType type;
  Status st = ReadFrame(fd_, &type, payload);
  if (!st.ok()) return Fail(std::move(st));
  if (type == FrameType::kError) {
    ByteReader r(*payload);
    Status remote;
    st = DecodeError(&r, &remote, &last_error_line_, &last_error_column_);
    if (!st.ok()) return Fail(std::move(st));
    return remote;
  }
  if (type != static_cast<FrameType>(expect)) {
    return Fail(Status::InvalidArgument(
        "protocol error: unexpected frame type " +
        std::to_string(static_cast<int>(type)) + ", expected " +
        std::to_string(static_cast<int>(expect))));
  }
  return Status::OK();
}

Result<QueryResult> PiClient::ReadResultResponse() {
  std::string payload;
  PIDX_RETURN_NOT_OK(ReadResponse(
      static_cast<std::uint8_t>(FrameType::kResultHeader), &payload));
  QueryResult result;
  {
    ByteReader r(payload);
    Status st = DecodeResultHeader(&r, &result);
    if (!st.ok()) return Fail(std::move(st));
  }
  for (;;) {
    FrameType type;
    Status st = ReadFrame(fd_, &type, &payload);
    if (!st.ok()) return Fail(std::move(st));
    if (type == FrameType::kRowBatch) {
      ByteReader r(payload);
      st = DecodeRowBatch(&r, &result.rows);
      if (st.ok() && !r.done()) {
        st = Status::InvalidArgument(
            "malformed frame: trailing bytes after row batch");
      }
      if (!st.ok()) return Fail(std::move(st));
      continue;
    }
    if (type == FrameType::kResultEnd) {
      ByteReader r(payload);
      const std::uint64_t total = r.GetU64();
      if (!r.ok()) return Fail(DecodeStatus(r));
      if (total != result.rows.num_rows()) {
        return Fail(Status::Internal(
            "result stream inconsistent: server announced " +
            std::to_string(total) + " rows, got " +
            std::to_string(result.rows.num_rows())));
      }
      return result;
    }
    return Fail(Status::InvalidArgument(
        "protocol error: unexpected frame type " +
        std::to_string(static_cast<int>(type)) + " inside a result set"));
  }
}

Result<QueryResult> PiClient::Sql(std::string_view sql,
                                  std::vector<Value> params) {
  std::string request;
  PutString(&request, sql);
  EncodeParams(&request, params);
  PIDX_RETURN_NOT_OK(
      SendRequest(static_cast<std::uint8_t>(FrameType::kQuery), request));
  return ReadResultResponse();
}

Result<RemoteStatement> PiClient::Prepare(std::string_view sql) {
  std::string request;
  PutString(&request, sql);
  PIDX_RETURN_NOT_OK(SendRequest(
      static_cast<std::uint8_t>(FrameType::kPrepare), request));
  std::string payload;
  PIDX_RETURN_NOT_OK(ReadResponse(
      static_cast<std::uint8_t>(FrameType::kPrepared), &payload));
  ByteReader r(payload);
  RemoteStatement stmt;
  stmt.id = r.GetU64();
  stmt.num_params = r.GetU32();
  if (!r.ok()) return Fail(DecodeStatus(r));
  return stmt;
}

Result<QueryResult> PiClient::Execute(const RemoteStatement& stmt,
                                      std::vector<Value> params) {
  std::string request;
  PutU64(&request, stmt.id);
  EncodeParams(&request, params);
  PIDX_RETURN_NOT_OK(SendRequest(
      static_cast<std::uint8_t>(FrameType::kExecute), request));
  return ReadResultResponse();
}

Status PiClient::CloseStatement(const RemoteStatement& stmt) {
  std::string request;
  PutU64(&request, stmt.id);
  PIDX_RETURN_NOT_OK(SendRequest(
      static_cast<std::uint8_t>(FrameType::kCloseStmt), request));
  std::string payload;
  return ReadResponse(static_cast<std::uint8_t>(FrameType::kStmtClosed),
                      &payload);
}

Result<std::string> PiClient::Meta(const std::string& line) {
  std::string request;
  PutString(&request, line);
  PIDX_RETURN_NOT_OK(
      SendRequest(static_cast<std::uint8_t>(FrameType::kMeta), request));
  std::string payload;
  PIDX_RETURN_NOT_OK(ReadResponse(
      static_cast<std::uint8_t>(FrameType::kMetaResult), &payload));
  ByteReader r(payload);
  std::string out = r.GetString();
  if (!r.ok()) return Fail(DecodeStatus(r));
  return out;
}

}  // namespace patchindex::net
