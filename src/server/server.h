#ifndef PATCHINDEX_SERVER_SERVER_H_
#define PATCHINDEX_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"

namespace patchindex::net {

struct Connection;
struct Task;

struct ServerOptions {
  /// Listen address. The default binds loopback only — exposing the
  /// server beyond the host is an explicit decision ("0.0.0.0").
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;

  /// Accepted sockets beyond this are greeted with a kUnavailable error
  /// frame and closed.
  std::size_t max_connections = 256;

  /// Admission control: requests admitted (queued or executing) across
  /// the whole server. A request arriving when the limit is reached is
  /// answered with a kUnavailable (SERVER_BUSY) error frame, in request
  /// order, instead of queueing without bound.
  std::size_t max_inflight_queries = 64;

  /// Admitted requests queued per connection (pipelining depth). Beyond
  /// it, further requests on that connection are rejected kUnavailable.
  std::size_t max_connection_queue = 8;

  /// Admission high-watermark over the engine's tracked bytes (in-flight
  /// query trackers plus the server's own frame/result accounting). A
  /// request arriving while tracked memory is at or above it is answered
  /// SERVER_BUSY instead of admitted — backpressure kicks in before the
  /// allocator does. 0 disables the check.
  std::uint64_t memory_soft_limit = 0;

  /// Threads executing queries. Query *coordination* runs here — the
  /// morsel work inside Session::Execute still fans out on the engine's
  /// shared ThreadPool. Coordinators get their own threads because a
  /// coordinator blocks waiting for its morsel futures; parking it on a
  /// pool worker could deadlock the pool against itself.
  std::size_t query_workers = 4;

  /// Socket send timeout per write, in seconds (0 = none). A client
  /// that stops reading its result stream would otherwise park a worker
  /// in send() forever — and stall graceful shutdown with it; when the
  /// timeout expires the connection is marked broken and dropped.
  std::size_t write_timeout_seconds = 30;

  /// How long a fresh connection gets to complete the kHello handshake,
  /// in seconds (0 = forever). A peer that connects and sends nothing
  /// would otherwise hold a reader thread and a connection slot
  /// indefinitely — max_connections of them lock the server out. After
  /// the handshake the receive side blocks without timeout (idle
  /// sessions are legitimate).
  std::size_t handshake_timeout_seconds = 10;

  /// Serve kMeta frames (the pisql meta commands: .gen/.load/.index/...).
  /// Off for deployments that want a pure SQL surface.
  bool enable_meta_commands = true;

  /// Queries (kQuery/kExecute) whose end-to-end worker time reaches this
  /// many milliseconds are logged — SQL text plus phase breakdown —
  /// through `slow_query_sink`. 0 disables the slow-query log.
  std::size_t slow_query_ms = 0;

  /// Receives one preformatted line (no trailing newline) per slow
  /// query. Null writes to stderr.
  std::function<void(const std::string&)> slow_query_sink;

  /// Test-only: runs at the start of every task execution, before the
  /// query runs (admission slot held). Lets tests park a worker
  /// deterministically to observe SERVER_BUSY and shutdown draining.
  std::function<void()> test_task_hook;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};
  std::atomic<std::uint64_t> queries_executed{0};
  std::atomic<std::uint64_t> queries_rejected_busy{0};
  /// Subset of queries_rejected_busy turned away at the memory
  /// high-watermark (ServerOptions::memory_soft_limit).
  std::atomic<std::uint64_t> queries_rejected_memory{0};
  std::atomic<std::uint64_t> protocol_errors{0};
};

/// The SQL-over-TCP server: one engine, many concurrent remote sessions.
///
/// Threading model: one acceptor thread accepts sockets and spawns one
/// reader thread per connection; readers decode frames into a bounded
/// per-connection task queue (applying admission control at enqueue) and
/// a fixed pool of query-worker threads drains those queues — one task
/// at a time per connection, FIFO, so responses leave in request order
/// while different connections execute concurrently. Each connection
/// owns one engine::Session, so remote clients get the same isolation
/// as in-process sessions: reads pin an MVCC table version through an
/// epoch guard (never blocking writers), DML serializes on the
/// writer–writer lock, and connection teardown retires its state
/// through the same epoch GC.
///
/// Backpressure: per-connection queues are bounded; when even rejection
/// markers would overflow one, its reader simply stops reading the
/// socket until the queue drains — TCP pushes back on the client.
///
/// Shutdown (Stop) is graceful: stop accepting, wake every reader
/// (shutdown(SHUT_RD) — already-queued requests stay), let the workers
/// drain every queue and deliver the results, then join all threads and
/// close the sockets.
///
/// The Engine must outlive the server. Start/Stop are not thread-safe
/// against each other; call them from one controlling thread.
class PiServer {
 public:
  PiServer(Engine& engine, ServerOptions options);
  ~PiServer();

  PiServer(const PiServer&) = delete;
  PiServer& operator=(const PiServer&) = delete;

  /// Binds, listens, and starts the acceptor + worker threads. Fails
  /// with kUnavailable when the address cannot be bound.
  Status Start();

  /// Graceful shutdown; idempotent. Blocks until in-flight and queued
  /// requests have drained and every thread is joined.
  void Stop();

  /// The bound TCP port (resolves port 0). Valid after Start().
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  const ServerStats& stats() const { return *stats_; }
  Engine& engine() { return engine_; }

 private:
  friend struct Connection;

  void AcceptorLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WorkerLoop();
  void ProcessTask(const std::shared_ptr<Connection>& conn, Task& task);
  void EnqueueTask(const std::shared_ptr<Connection>& conn, Task task);
  void PushReady(const std::shared_ptr<Connection>& conn);
  void ReapFinishedConnectionsLocked();
  void RegisterMetrics();
  void LogSlowQuery(const std::string& sql, double total_ms,
                    const obs::QueryProfile* profile);

  Engine& engine_;
  ServerOptions options_;
  /// Shared with the registry callbacks that export it, so the engine's
  /// registry keeps rendering the final values after this server is gone.
  std::shared_ptr<ServerStats> stats_ = std::make_shared<ServerStats>();

  /// Server histograms in the engine's registry; null when the engine
  /// was built with enable_metrics off (the ServerStats callbacks still
  /// register — folding existing atomics costs nothing per query).
  obs::Histogram* query_latency_us_ = nullptr;
  /// Admitted-request wait between enqueue and worker pickup
  /// (pidx_wait_server_queue_us, next to the engine's pidx_wait_* family).
  obs::Histogram* wait_queue_us_ = nullptr;
  obs::Counter* slow_queries_ = nullptr;

  /// Frame/result-queue accounting, parented under the engine tracker so
  /// server buffers show up in pidx_memory_tracked_bytes and
  /// pi_stats.memory. Registered with the engine between Start and Stop.
  std::unique_ptr<obs::MemoryTracker> mem_tracker_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe waking the acceptor's poll
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Admitted (queued or executing) requests across the server.
  std::atomic<std::size_t> inflight_{0};

  /// Ids handed to accepted connections (pi_stats.connections /
  /// pi_stats.queries.connection_id). Starts at 1; -1 means in-process.
  std::atomic<std::int64_t> next_connection_id_{1};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards connections_, ready_, workers_stop_
  std::condition_variable cv_ready_;    // workers wait for ready conns
  std::condition_variable cv_drained_;  // Stop waits for queues to empty
  std::deque<std::shared_ptr<Connection>> ready_;
  std::vector<std::shared_ptr<Connection>> connections_;
  bool workers_stop_ = false;
};

}  // namespace patchindex::net

#endif  // PATCHINDEX_SERVER_SERVER_H_
