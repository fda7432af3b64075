#include "server/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/epoch_gc.h"
#include "common/timer.h"
#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "server/meta_commands.h"
#include "server/wire.h"

namespace patchindex::net {

/// One decoded client request (or its rejection / a protocol failure),
/// queued per connection so responses leave in request order.
struct Task {
  enum class Kind { kQuery, kPrepare, kExecute, kCloseStmt, kMeta, kFatal };

  Kind kind = Kind::kQuery;
  /// True when the task holds an admission slot; false tasks are
  /// answered with the kUnavailable error in `reject_reason`.
  bool admitted = false;
  std::string text;  // sql (kQuery/kPrepare) or meta line (kMeta)
  std::vector<Value> params;
  std::uint64_t stmt_id = 0;
  Status error;  // kFatal: the protocol error to report before closing
  std::string reject_reason;
  /// When the reader queued the task — the worker records the queue wait
  /// (pickup time minus this) into pidx_wait_server_queue_us.
  std::chrono::steady_clock::time_point enqueued;
  /// Request bytes charged to the server's memory tracker at admission;
  /// the worker releases them after the task is processed.
  std::uint64_t charged_bytes = 0;
};

/// Per-client state. The reader thread decodes frames into `queue`;
/// exactly one worker at a time drains it (worker_active), so `session`,
/// `stmts` and the socket writes need no further synchronization.
struct Connection {
  explicit Connection(Engine& engine) : session(engine.CreateSession()) {}

  ~Connection() {
    if (reader.joinable()) reader.join();
    if (fd >= 0) ::close(fd);
  }

  int fd = -1;
  std::thread reader;
  Session session;

  /// Server-wide connection id; tags the session's statements in
  /// pi_stats.queries and keys pi_stats.connections.
  std::int64_t id = -1;
  /// Peer address ("host:port", numeric) for pi_stats.connections.
  std::string remote;
  /// Statements this connection has executed (kQuery + kExecute).
  /// Atomic: bumped by the processing worker, read by
  /// pi_stats.connections snapshots from other sessions' workers.
  std::atomic<std::uint64_t> queries{0};

  std::mutex mu;  // guards everything below
  std::condition_variable cv_space;  // reader waits for queue space
  std::deque<Task> queue;
  std::size_t admitted_pending = 0;  // admitted tasks queued or executing
  bool in_ready = false;       // scheduled in PiServer::ready_
  bool worker_active = false;  // a worker is processing a task
  bool reader_done = false;    // reader thread exited
  bool broken = false;         // socket failed; drop remaining writes
  bool finished = false;       // fd closed, ready to reap

  /// Prepared statements of this connection, keyed by wire id. Touched
  /// only under the one-worker-at-a-time task serialization.
  std::unordered_map<std::uint64_t, PreparedStatement> stmts;
  std::uint64_t next_stmt_id = 1;

  /// Retires the connection: closes the socket and hands the heavy
  /// state (prepared plans, queued tasks) to the epoch GC — the struct
  /// itself lingers in PiServer::connections_ until the next accept or
  /// Stop reaps it (joining the reader thread), but must not retain
  /// engine state that long. Destruction is deferred through the global
  /// EpochGc rather than run inline: it keeps the (possibly large) plan
  /// teardown off `mu`, and any observer that resolved pointers into
  /// this state under an epoch guard keeps them valid until its guard
  /// releases — the same reclamation protocol MVCC readers and the
  /// flight recorder's registry use. Call with `mu` held, reader done,
  /// queue drained, no worker active.
  void FinalizeLocked() {
    finished = true;
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    auto stale = std::make_shared<
        std::pair<std::unordered_map<std::uint64_t, PreparedStatement>,
                  std::deque<Task>>>(std::move(stmts), std::move(queue));
    EpochGc::Global().Retire([stale]() mutable { stale.reset(); });
    stmts.clear();  // moved-from: back to a known-empty state
    queue.clear();
  }
};

namespace {

Status MakeListenSocket(const std::string& host, std::uint16_t port,
                        int* out_fd, std::uint16_t* out_port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve listen address '" + host +
                               "': " + gai_strerror(rc));
  }
  Status last = Status::Unavailable("no usable address for '" + host + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, 128) != 0) {
      last = Status::Unavailable(std::string("cannot listen on ") + host +
                                 ":" + service + ": " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    sockaddr_storage bound{};
    socklen_t len = sizeof bound;
    std::uint16_t actual = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        actual =
            ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        actual =
            ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    ::freeaddrinfo(res);
    *out_fd = fd;
    *out_port = actual;
    return Status::OK();
  }
  ::freeaddrinfo(res);
  return last;
}

/// Returns the transport status: ProcessTask must treat a failed error
/// send like any other write failure (the stream may hold a partial
/// frame — nothing sent after it would parse). Handshake/greeting
/// callers ignore it, as those connections are being dropped anyway.
Status SendErrorFrame(int fd, const Status& status) {
  std::string payload;
  EncodeError(&payload, status);
  return WriteFrame(fd, FrameType::kError, payload);
}

/// Best-effort accounting of result bytes streamed to a client: charges
/// accumulate while the frames are encoded and written and release when
/// the response is done (the per-query tracker released the statement's
/// balance when it retired, so the materialized result riding the server
/// worker is otherwise invisible). TryCharge, never Charge — hitting the
/// engine limit mid-stream must not abort a response whose header is
/// already on the wire; the bytes simply go unaccounted.
class ScopedResultBytes {
 public:
  explicit ScopedResultBytes(obs::MemoryTracker* mem) : mem_(mem) {}
  ~ScopedResultBytes() {
    if (charged_ != 0) mem_->Release(charged_);
  }
  void Add(std::uint64_t bytes) {
    if (mem_ == nullptr) return;
    std::string scope;
    if (mem_->TryCharge(bytes, &scope)) charged_ += bytes;
  }

 private:
  obs::MemoryTracker* mem_;
  std::uint64_t charged_ = 0;
};

/// Streams a QueryResult as header + row batches + end, one send per
/// batch: the header rides with the first batch and the end frame with
/// the last, so a result of at most one batch leaves in a single send.
/// Batches close at kRowsPerWireBatch rows or kWireBatchSoftBytes bytes,
/// whichever comes first (WireBatchEnd), so wide string rows never push
/// a frame toward the kMaxFrameBytes ceiling. Returns the first write
/// failure so the caller can mark the connection broken.
Status SendResult(int fd, const QueryResult& result,
                  obs::MemoryTracker* mem) {
  ScopedResultBytes bytes(mem);
  std::string header;
  EncodeResultHeader(&header, result);
  bytes.Add(header.size());
  const std::size_t total = result.rows.num_rows();
  std::string end_payload;
  PutU64(&end_payload, total);
  bytes.Add(end_payload.size());
  std::string batch;  // reused: one buffer for every batch
  std::size_t begin = 0;
  do {
    const std::size_t end = WireBatchEnd(result.rows, begin);
    OutFrame frames[kMaxFramesPerWrite];
    std::size_t n = 0;
    if (begin == 0) frames[n++] = {FrameType::kResultHeader, header};
    if (end > begin) {
      batch.clear();
      EncodeRowBatch(&batch, result.rows, begin, end);
      bytes.Add(batch.size());
      frames[n++] = {FrameType::kRowBatch, batch};
    }
    if (end == total) frames[n++] = {FrameType::kResultEnd, end_payload};
    PIDX_RETURN_NOT_OK(WriteFrames(fd, {frames, n}));
    begin = end;
  } while (begin < total);
  return Status::OK();
}

}  // namespace

PiServer::PiServer(Engine& engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      mem_tracker_(std::make_unique<obs::MemoryTracker>("server",
                                                        &engine.memory())) {}

void PiServer::RegisterMetrics() {
  obs::MetricsRegistry& r = engine_.metrics();
  // ServerStats folded into the registry as callbacks: one source of
  // truth, zero extra per-query work. Each callback shares ownership of
  // the stats, so the registry keeps rendering their final values after
  // the server is stopped and destroyed.
  std::shared_ptr<const ServerStats> stats = stats_;
  r.SetCallback("pidx_server_connections_accepted_total",
                "Client connections accepted",
                [stats] { return stats->connections_accepted.load(); });
  r.SetCallback("pidx_server_connections_rejected_total",
                "Connections rejected at the connection limit",
                [stats] { return stats->connections_rejected.load(); });
  r.SetCallback("pidx_server_queries_executed_total",
                "Queries executed (kQuery + kExecute frames)",
                [stats] { return stats->queries_executed.load(); });
  r.SetCallback("pidx_server_queries_rejected_busy_total",
                "Queries rejected with SERVER_BUSY",
                [stats] { return stats->queries_rejected_busy.load(); });
  r.SetCallback("pidx_server_queries_rejected_memory_total",
                "Queries rejected at the memory admission high-watermark",
                [stats] { return stats->queries_rejected_memory.load(); });
  r.SetCallback("pidx_server_protocol_errors_total",
                "Malformed frames / handshake failures",
                [stats] { return stats->protocol_errors.load(); });
  query_latency_us_ = r.GetHistogram(
      "pidx_server_query_latency_us",
      "End-to-end query time in a server worker (execute + respond)");
  wait_queue_us_ = r.GetHistogram(
      "pidx_wait_server_queue_us",
      "Wait event: admitted request sat in its connection queue before a "
      "worker picked it up");
  slow_queries_ =
      r.GetCounter("pidx_server_slow_queries_total",
                   "Queries at or over ServerOptions::slow_query_ms");
}

void PiServer::LogSlowQuery(const std::string& sql, double total_ms,
                            const obs::QueryProfile* profile) {
  slow_queries_->Add(1);
  char buf[64];
  std::string line;
  std::snprintf(buf, sizeof buf, "slow query (%.3f ms): ", total_ms);
  line += buf;
  line += sql;
  if (profile != nullptr) {
    line += " -- phases:";
    for (const obs::PhaseInfo& p : obs::kPhases) {
      std::snprintf(buf, sizeof buf, " %s=%.3fms", p.label, profile->*p.ms);
      line += buf;
    }
  }
  if (options_.slow_query_sink) {
    options_.slow_query_sink(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

PiServer::~PiServer() { Stop(); }

Status PiServer::Start() {
  PIDX_CHECK_MSG(!started_, "PiServer::Start called twice");
  if (::pipe(wake_pipe_) != 0) {
    return Status::Internal(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  Status st =
      MakeListenSocket(options_.host, options_.port, &listen_fd_, &port_);
  if (!st.ok()) {
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    return st;
  }
  started_ = true;
  stopping_.store(false);
  RegisterMetrics();
  engine_.SetServerMemoryTracker(mem_tracker_.get());
  // pi_stats.connections: snapshot the live connection list on demand.
  // Lock order mu_ -> conn->mu matches every other server path. Removed
  // in Stop() before the connection list is torn down.
  engine_.SetConnectionsProvider([this] {
    std::vector<obs::ConnectionInfo> out;
    const bool draining = stopping_.load();
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(connections_.size());
    for (const auto& conn : connections_) {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (conn->finished) continue;
      obs::ConnectionInfo info;
      info.connection_id = conn->id;
      info.session_id = static_cast<std::int64_t>(conn->session.session_id());
      info.remote = conn->remote;
      info.state = draining ? "draining" : "open";
      info.queue_depth = static_cast<std::int64_t>(conn->queue.size());
      info.queries = static_cast<std::int64_t>(conn->queries.load());
      out.push_back(std::move(info));
    }
    return out;
  });
  const std::size_t workers = std::max<std::size_t>(1, options_.query_workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::OK();
}

void PiServer::Stop() {
  if (!started_) return;
  stopping_.store(true);

  // Wake and retire the acceptor: no new connections from here on.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_pipe_[0] >= 0) {
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }

  // Wake every reader: a half-close makes its next recv() return EOF
  // while requests already decoded stay queued — those drain below.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->finished && conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RD);
    }
    conn->cv_space.notify_all();
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // Drain: workers finish every queued request and deliver its response.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_drained_.wait(lock, [&] {
      for (const auto& conn : connections_) {
        std::lock_guard<std::mutex> cl(conn->mu);
        if (!conn->queue.empty() || conn->worker_active) return false;
      }
      return true;
    });
    workers_stop_ = true;
  }
  cv_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // No queries can run pi_stats.connections snapshots past this point
  // (workers are joined); deregister before tearing the list down so the
  // engine never calls into freed server state. Same for the memory
  // tracker: pi_stats.memory samples it only while registered.
  engine_.SetConnectionsProvider(nullptr);
  engine_.SetServerMemoryTracker(nullptr);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!conn->finished) conn->FinalizeLocked();
    }
    connections_.clear();
    ready_.clear();
    workers_stop_ = false;
  }

  started_ = false;
}

void PiServer::AcceptorLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP)) != 0 || stopping_.load()) {
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    sockaddr_storage peer{};
    socklen_t peer_len = sizeof peer;
    const int cfd = ::accept(
        listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (cfd < 0) {
      if (errno == EBADF || errno == EINVAL) return;  // socket torn down
      // Anything else — EMFILE/ENFILE fd pressure, ENOBUFS/ENOMEM,
      // aborted peers — is transient: a dead acceptor would turn
      // recoverable pressure into a permanent silent outage. Back off
      // briefly and keep accepting.
      if (errno != EINTR && errno != ECONNABORTED) {
        timespec ts{0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
      }
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.write_timeout_seconds > 0) {
      // A worker must never block in send() forever on a peer that
      // stopped reading (see ServerOptions::write_timeout_seconds).
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.write_timeout_seconds);
      ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    if (options_.handshake_timeout_seconds > 0) {
      // Armed only until the handshake completes (the reader clears
      // it): a silent connect must not hold a slot forever.
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.handshake_timeout_seconds);
      ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }

    std::size_t active;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ReapFinishedConnectionsLocked();
      active = connections_.size();
    }
    if (active >= options_.max_connections) {
      (void)SendErrorFrame(cfd, Status::Unavailable(
                              "SERVER_BUSY: connection limit reached (" +
                              std::to_string(options_.max_connections) +
                              "); retry later"));
      ::close(cfd);
      stats_->connections_rejected.fetch_add(1);
      continue;
    }

    auto conn = std::make_shared<Connection>(engine_);
    conn->fd = cfd;
    conn->id = next_connection_id_.fetch_add(1);
    conn->session.set_connection_id(conn->id);
    char peer_host[NI_MAXHOST];
    char peer_port[NI_MAXSERV];
    if (::getnameinfo(reinterpret_cast<sockaddr*>(&peer), peer_len,
                      peer_host, sizeof peer_host, peer_port,
                      sizeof peer_port,
                      NI_NUMERICHOST | NI_NUMERICSERV) == 0) {
      conn->remote = std::string(peer_host) + ":" + peer_port;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    stats_->connections_accepted.fetch_add(1);
  }
}

void PiServer::ReapFinishedConnectionsLocked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    bool finished;
    {
      std::lock_guard<std::mutex> cl((*it)->mu);
      finished = (*it)->finished;
    }
    if (finished) {
      // The reader set `finished` on its way out (or a worker did after
      // the reader was done), so the join returns promptly.
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void PiServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  // Handshake: exactly one kHello with a version we speak.
  FrameType type;
  std::string payload;
  bool handshook = false;
  Status st = ReadFrame(conn->fd, &type, &payload);
  if (st.ok() && type == FrameType::kHello) {
    ByteReader r(payload);
    const std::uint32_t version = r.GetU32();
    if (r.ok() && version == kProtocolVersion) {
      std::string welcome;
      PutU32(&welcome, kProtocolVersion);
      handshook = WriteFrame(conn->fd, FrameType::kWelcome, welcome).ok();
      if (handshook && options_.handshake_timeout_seconds > 0) {
        // Handshake done: drop the receive timeout — idle sessions are
        // legitimate and must not be disconnected.
        timeval tv{};
        ::setsockopt(conn->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      }
    } else {
      (void)SendErrorFrame(
          conn->fd,
          Status::InvalidArgument(
              "unsupported protocol version " + std::to_string(version) +
              " (server speaks " + std::to_string(kProtocolVersion) + ")"));
      stats_->protocol_errors.fetch_add(1);
    }
  } else if (st.ok()) {
    (void)SendErrorFrame(conn->fd,
                         Status::InvalidArgument(
                             "protocol error: expected Hello frame"));
    stats_->protocol_errors.fetch_add(1);
  }

  while (handshook) {
    st = ReadFrame(conn->fd, &type, &payload);
    if (!st.ok()) {
      // kUnavailable = the peer closed (or Stop half-closed us): done.
      // Anything else is a malformed stream — report it in order, then
      // stop reading; the stream cannot be re-synchronized.
      if (st.code() != StatusCode::kUnavailable) {
        Task fatal;
        fatal.kind = Task::Kind::kFatal;
        fatal.error = st;
        stats_->protocol_errors.fetch_add(1);
        EnqueueTask(conn, std::move(fatal));
      }
      break;
    }
    Task task;
    ByteReader r(payload);
    Status decode = Status::OK();
    bool goodbye = false;
    switch (type) {
      case FrameType::kQuery:
        task.kind = Task::Kind::kQuery;
        task.text = r.GetString();
        decode = DecodeParams(&r, &task.params);
        break;
      case FrameType::kPrepare:
        task.kind = Task::Kind::kPrepare;
        task.text = r.GetString();
        decode = DecodeStatus(r);
        break;
      case FrameType::kExecute:
        task.kind = Task::Kind::kExecute;
        task.stmt_id = r.GetU64();
        decode = DecodeParams(&r, &task.params);
        break;
      case FrameType::kCloseStmt:
        task.kind = Task::Kind::kCloseStmt;
        task.stmt_id = r.GetU64();
        decode = DecodeStatus(r);
        break;
      case FrameType::kMeta:
        task.kind = Task::Kind::kMeta;
        task.text = r.GetString();
        decode = DecodeStatus(r);
        break;
      case FrameType::kGoodbye:
        goodbye = true;
        break;
      default:
        decode = Status::InvalidArgument(
            "protocol error: unexpected frame type " +
            std::to_string(static_cast<int>(type)));
        break;
    }
    if (goodbye) break;
    if (decode.ok() && !r.done()) {
      // Reject trailing garbage: a frame that decodes but carries extra
      // bytes means the peer's framing is off — nothing after it can be
      // trusted.
      decode = Status::InvalidArgument(
          "malformed frame: trailing bytes after request payload");
    }
    if (!decode.ok()) {
      Task fatal;
      fatal.kind = Task::Kind::kFatal;
      fatal.error = decode;
      stats_->protocol_errors.fetch_add(1);
      EnqueueTask(conn, std::move(fatal));
      break;
    }
    EnqueueTask(conn, std::move(task));
  }

  std::lock_guard<std::mutex> lock(conn->mu);
  conn->reader_done = true;
  if (conn->queue.empty() && !conn->worker_active && !conn->finished) {
    conn->FinalizeLocked();
  }
}

void PiServer::EnqueueTask(const std::shared_ptr<Connection>& conn,
                           Task task) {
  // Hard cap on the whole queue, rejection markers included: when even
  // those would overflow, stop reading the socket — TCP backpressure —
  // instead of growing memory. Stop() breaks the wait so shutdown never
  // deadlocks against a stuffed queue.
  const std::size_t hard_cap = options_.max_connection_queue * 2 + 4;
  bool need_push = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->cv_space.wait(lock, [&] {
      return conn->queue.size() < hard_cap || stopping_.load() ||
             conn->broken;
    });
    if (conn->broken) return;
    if (task.kind != Task::Kind::kFatal) {
      if (stopping_.load()) {
        task.admitted = false;
        task.reject_reason = "server shutting down";
      } else if (conn->admitted_pending >= options_.max_connection_queue) {
        task.admitted = false;
        task.reject_reason =
            "SERVER_BUSY: per-connection queue full (" +
            std::to_string(options_.max_connection_queue) +
            " requests pending); retry later";
      } else if (options_.memory_soft_limit > 0 &&
                 engine_.memory().current() >= options_.memory_soft_limit) {
        // Memory high-watermark: shed load while tracked bytes (query
        // trackers + server buffers) sit at the soft limit, before the
        // allocator is the one saying no.
        task.admitted = false;
        task.reject_reason =
            "SERVER_BUSY: tracked memory at the admission high-watermark "
            "(" + std::to_string(options_.memory_soft_limit) +
            " bytes); retry later";
        stats_->queries_rejected_memory.fetch_add(1);
      } else {
        std::size_t cur = inflight_.load();
        bool admitted = false;
        while (cur < options_.max_inflight_queries) {
          if (inflight_.compare_exchange_weak(cur, cur + 1)) {
            admitted = true;
            break;
          }
        }
        if (admitted) {
          task.admitted = true;
          ++conn->admitted_pending;
          // Account the queued request itself (SQL text + bound params);
          // best-effort — an engine tracker at its limit just leaves the
          // bytes uncounted.
          std::uint64_t request_bytes = task.text.size();
          for (const Value& v : task.params) {
            request_bytes += sizeof(Value);
            if (v.type() == ColumnType::kString) {
              request_bytes += v.AsString().size();
            }
          }
          std::string scope;
          if (mem_tracker_->TryCharge(request_bytes, &scope)) {
            task.charged_bytes = request_bytes;
          }
        } else {
          task.admitted = false;
          task.reject_reason =
              "SERVER_BUSY: " +
              std::to_string(options_.max_inflight_queries) +
              " queries in flight; retry later";
        }
      }
    }
    task.enqueued = std::chrono::steady_clock::now();
    conn->queue.push_back(std::move(task));
    if (!conn->worker_active && !conn->in_ready) {
      conn->in_ready = true;
      need_push = true;
    }
  }
  if (need_push) PushReady(conn);
}

void PiServer::PushReady(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_.push_back(conn);
  cv_ready_.notify_one();
}

void PiServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_ready_.wait(lock, [&] { return !ready_.empty() || workers_stop_; });
      if (ready_.empty()) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
    }
    Task task;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      PIDX_CHECK(!conn->queue.empty());
      conn->in_ready = false;
      conn->worker_active = true;
      task = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    if (task.admitted) {
      wait_queue_us_->RecordNanos(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count());
    }

    ProcessTask(conn, task);
    if (task.charged_bytes != 0) mem_tracker_->Release(task.charged_bytes);

    bool repush = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->worker_active = false;
      if (task.admitted) {
        --conn->admitted_pending;
        inflight_.fetch_sub(1);
      }
      conn->cv_space.notify_all();
      if (!conn->queue.empty()) {
        if (!conn->in_ready) {
          conn->in_ready = true;
          repush = true;
        }
      } else if (conn->reader_done && !conn->finished) {
        conn->FinalizeLocked();
      }
    }
    if (repush) {
      // Requeue at the back: k pipelined requests on one connection take
      // k ready-cycles, so no connection can starve the others.
      PushReady(conn);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      cv_drained_.notify_all();
    }
  }
}

namespace {

/// Marks a connection unusable mid-response: besides dropping further
/// writes, half-close both directions so the peer sees EOF instead of
/// waiting forever for the rest of a result stream, and our reader (if
/// still running) wakes out of recv. The fd itself is closed only by
/// the normal finalize path.
void MarkBroken(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.broken = true;
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  conn.cv_space.notify_all();
}

}  // namespace

Status PiServer::RunAndRespond(
    Connection& conn, const std::string& sql,
    const std::function<Result<QueryResult>()>& run) {
  WallTimer timer;
  Result<QueryResult> result = run();
  const Status write =
      result.ok() ? SendResult(conn.fd, result.value(), mem_tracker_.get())
                  : SendErrorFrame(conn.fd, result.status());
  const std::int64_t elapsed_ns = timer.ElapsedNanos();
  query_latency_us_->RecordNanos(elapsed_ns);
  const double elapsed_ms = static_cast<double>(elapsed_ns) / 1e6;
  if (options_.slow_query_ms > 0 &&
      elapsed_ms >= static_cast<double>(options_.slow_query_ms)) {
    LogSlowQuery(sql, elapsed_ms,
                 result.ok() ? result.value().profile.get() : nullptr);
  }
  return write;
}

void PiServer::ProcessTask(const std::shared_ptr<Connection>& conn,
                           Task& task) {
  if (task.kind == Task::Kind::kFatal) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->broken && conn->fd >= 0) {
        (void)SendErrorFrame(conn->fd, task.error);
      }
    }
    MarkBroken(*conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->broken) return;  // client is gone; drop the work
  }
  if (!task.admitted) {
    stats_->queries_rejected_busy.fetch_add(1);
    if (!SendErrorFrame(conn->fd, Status::Unavailable(task.reject_reason))
             .ok()) {
      MarkBroken(*conn);
    }
    return;
  }
  if (options_.test_task_hook) options_.test_task_hook();

  Status write = Status::OK();
  switch (task.kind) {
    case Task::Kind::kQuery: {
      stats_->queries_executed.fetch_add(1);
      conn->queries.fetch_add(1);
      write = RunAndRespond(*conn, task.text, [&] {
        return conn->session.Sql(task.text, std::move(task.params));
      });
      break;
    }
    case Task::Kind::kPrepare: {
      Result<PreparedStatement> prepared = conn->session.Prepare(task.text);
      if (!prepared.ok()) {
        write = SendErrorFrame(conn->fd, prepared.status());
        break;
      }
      const std::uint64_t id = conn->next_stmt_id++;
      const std::uint32_t num_params =
          static_cast<std::uint32_t>(prepared.value().num_params());
      conn->stmts.emplace(id, std::move(prepared).value());
      std::string reply;
      PutU64(&reply, id);
      PutU32(&reply, num_params);
      write = WriteFrame(conn->fd, FrameType::kPrepared, reply);
      break;
    }
    case Task::Kind::kExecute: {
      stats_->queries_executed.fetch_add(1);
      conn->queries.fetch_add(1);
      auto it = conn->stmts.find(task.stmt_id);
      if (it == conn->stmts.end()) {
        write = SendErrorFrame(
            conn->fd, Status::NotFound("unknown prepared statement id " +
                                       std::to_string(task.stmt_id)));
        break;
      }
      PreparedStatement& stmt = it->second;
      write = RunAndRespond(*conn, stmt.sql(), [&] {
        return stmt.Execute(std::move(task.params));
      });
      break;
    }
    case Task::Kind::kCloseStmt: {
      if (conn->stmts.erase(task.stmt_id) == 0) {
        write = SendErrorFrame(
            conn->fd, Status::NotFound("unknown prepared statement id " +
                                       std::to_string(task.stmt_id)));
        break;
      }
      write = WriteFrame(conn->fd, FrameType::kStmtClosed, {});
      break;
    }
    case Task::Kind::kMeta: {
      if (!options_.enable_meta_commands) {
        write = SendErrorFrame(
            conn->fd, Status::InvalidArgument(
                          "meta commands are disabled on this server"));
        break;
      }
      const std::string out =
          RunMetaCommand(engine_, conn->session, task.text);
      std::string meta;
      PutString(&meta, out);
      write = WriteFrame(conn->fd, FrameType::kMetaResult, meta);
      break;
    }
    case Task::Kind::kFatal:
      break;  // handled above
  }
  if (!write.ok()) MarkBroken(*conn);
}

}  // namespace patchindex::net
