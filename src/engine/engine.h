#ifndef PATCHINDEX_ENGINE_ENGINE_H_
#define PATCHINDEX_ENGINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "engine/durability.h"
#include "engine/executor.h"
#include "obs/flight_recorder.h"
#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/system_tables.h"
#include "obs/trace.h"
#include "optimizer/rewriter.h"

namespace patchindex {

struct EngineOptions {
  /// Worker threads for the morsel-driven executor; 0 = hardware
  /// concurrency, overridable by the PI_THREADS environment variable
  /// (see DefaultThreadCount in common/thread_pool.h).
  std::size_t num_threads = 0;

  /// Base rows per morsel.
  std::size_t morsel_rows = kDefaultMorselRows;

  /// Tables below this visible-row count run on the serial operator tree
  /// even when the plan shape is parallelizable. 0 forces parallelism.
  std::size_t min_parallel_rows = 16 * kBatchSize;

  /// Master switch: false pins every query to the serial operator tree
  /// (used for A/B comparison and by the equivalence tests).
  bool enable_parallel_execution = true;

  /// Partitions a CREATE TABLE statement without a PARTITIONS clause
  /// gets (the session default of the paper's §3.2 partition-local
  /// processing). 1 keeps the historical single-partition behavior.
  std::size_t default_table_partitions = 1;

  /// Runtime switch for the observability layer: when true (default)
  /// every query records its phase spans (parse/bind/optimize/execute/
  /// commit) into the engine's metrics registry and attaches a
  /// QueryResult::profile. False skips all recording — the baseline the
  /// metrics-overhead benchmark compares against. Operator-level
  /// profiling (EXPLAIN ANALYZE) is per-query and unaffected.
  bool enable_metrics = true;

  /// Completed statements the flight recorder retains for
  /// `pi_stats.queries` (see obs/flight_recorder.h). 0 disables retention
  /// — the active-query registry still works.
  std::size_t flight_recorder_capacity = 512;

  /// Fraction of SQL statements that capture a full span trace
  /// (phase spans plus per-worker and per-morsel executor spans),
  /// exportable as Chrome trace-event JSON (pisql `.trace`, piserver
  /// GET /trace). 0 (the default) traces nothing and costs nothing;
  /// 1.0 traces every statement; in between, every round(1/p)-th
  /// statement is selected deterministically.
  double trace_sampling = 0.0;

  /// Test hook: runs inside every SQL statement execution, after the
  /// statement is registered with the flight recorder and its phase is
  /// set to execute. Lets tests park a statement mid-flight and observe
  /// it through pi_stats.active_queries from another connection.
  std::function<void(std::string_view sql)> sql_exec_hook;

  /// Options forwarded to the PatchIndex rewriter.
  OptimizerOptions optimizer;

  /// Durability: a non-empty data_dir turns on per-partition write-ahead
  /// logging + checkpoint/recovery (see engine/durability.h). The Engine
  /// constructor recovers the catalog from the directory; callers must
  /// check Engine::recovery_status() before trusting the engine.
  DurabilityOptions durability;

  /// Per-statement memory budget, bytes. A statement whose accounted
  /// allocations (join builds, sort buffers, aggregate tables, result
  /// materialization, DML deltas) exceed it aborts with a
  /// kResourceExhausted status naming the operator that tripped the
  /// limit; the session and engine stay fully usable. 0 = unlimited.
  std::uint64_t query_memory_limit = 0;

  /// Engine-wide budget over all concurrently accounted statement memory
  /// (the per-engine tracker all query trackers parent under). 0 =
  /// unlimited.
  std::uint64_t engine_memory_limit = 0;
};

/// A query answer: the materialized rows plus how they were produced.
struct QueryResult {
  Batch rows;
  /// Output column names. Filled by the SQL front end (Session::Sql and
  /// prepared statements); empty for hand-built LogicalNode plans, whose
  /// columns are positional.
  std::vector<std::string> column_names;
  /// Rows inserted/modified/deleted by a SQL DML statement; 0 for reads.
  std::uint64_t rows_affected = 0;
  /// True when the morsel-driven parallel executor ran the plan; false
  /// when it fell back to the serial operator tree. Parallel results are
  /// identical to serial ones modulo row order (a Sort-rooted plan keeps
  /// the sort order either way; a TopN whose ties straddle the limit may
  /// keep different tied rows — both are valid top-k answers).
  bool parallel = false;
  /// The plan's join ran as a partitioned parallel build + parallel
  /// probe (implies `parallel`).
  bool parallel_join = false;
  /// The plan's order-by ran as per-worker local sorts + k-way merge
  /// (implies `parallel`). False when the sort was applied serially to
  /// an already merged aggregate result.
  bool parallel_sort = false;
  /// Phase spans (and, for EXPLAIN ANALYZE, per-operator measurements)
  /// of this query. Set by the SQL path when EngineOptions::enable_metrics
  /// is on; null otherwise (and for hand-built plans run via Execute).
  std::shared_ptr<obs::QueryProfile> profile;
  /// The statement's span trace when the engine's trace sampler selected
  /// it (EngineOptions::trace_sampling); null otherwise. Render with
  /// obs::RenderChromeTrace (pisql's `.trace` does).
  std::shared_ptr<obs::TraceBuffer> trace;
};

/// Which execution path the session's queries took, answering "did my
/// query actually run parallel?" without a profiler. One query bumps
/// `serial_fallbacks` or at least one parallel counter; a plan with both
/// a join and an order-by bumps both feature counters. Counters are
/// atomics — a Session may be used from several threads — and are shared
/// by all copies of one Session.
struct ExecPathCounters {
  /// Parallel queries that were plain scan/aggregate pipelines (no
  /// parallel join or sort involved).
  std::atomic<std::uint64_t> parallel_pipelines{0};
  /// Queries whose join ran the partitioned parallel build + probe.
  std::atomic<std::uint64_t> parallel_joins{0};
  /// Queries whose order-by ran as local sorts + k-way merge.
  std::atomic<std::uint64_t> parallel_sorts{0};
  /// Queries executed entirely on the serial operator tree.
  std::atomic<std::uint64_t> serial_fallbacks{0};
};

/// One cell change of an update query.
struct CellUpdate {
  RowId row;
  std::size_t column;
  Value value;
};

/// One update query's delta. Exactly one kind may be non-empty — one SQL
/// statement inserts, modifies or deletes, never a mix (paper §5).
struct UpdateQuery {
  std::vector<Row> inserts;
  std::vector<RowId> deletes;
  std::vector<CellUpdate> modifies;

  static UpdateQuery Insert(std::vector<Row> rows);
  static UpdateQuery Delete(std::vector<RowId> rows);
  static UpdateQuery Modify(std::vector<CellUpdate> cells);
};

class Session;
class PreparedStatement;

/// Resolves every catalog table `plan` scans to TableRefs, sorted by
/// lock address and deduplicated — the deterministic order in which read
/// queries acquire their shared locks (see the Session class comment).
/// Shared by Session::Execute and the SQL EXPLAIN path.
void CollectPlanTableRefs(const LogicalNode& plan, const Catalog& catalog,
                          std::vector<Catalog::TableRef>* refs);

/// The execution engine: owns the catalog (tables + PatchIndexes) and the
/// worker pool, and hands out sessions. Queries enter as LogicalNode
/// plans, run through the PatchIndex rewriter, and execute either on the
/// morsel-driven parallel executor or — for plan shapes it does not
/// handle — on the serial operator tree. Read queries scan pinned
/// immutable table versions lock-free (MVCC snapshot reads); update
/// queries serialize on per-table writer–writer locks.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Detaches the pool's queue-wait recorder before the metrics registry
  /// (whose histogram it records into) is destroyed.
  ~Engine();

  Catalog& catalog() { return catalog_; }
  const EngineOptions& options() const { return options_; }
  ThreadPool& pool() { return *pool_; }

  /// The engine-wide metrics registry: query/statement counters and
  /// phase-latency histograms, plus whatever other layers (the server)
  /// register into it. Always present — recording by the engine itself is
  /// gated by EngineOptions::enable_metrics; external registrations work
  /// either way.
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// The engine's flight recorder: the active-query registry plus the
  /// ring of recently completed statements. Always present; feeds
  /// `pi_stats.queries` / `pi_stats.active_queries`.
  obs::FlightRecorder& recorder() { return *recorder_; }

  /// Deterministic trace sampler: true when the next SQL statement should
  /// carry a TraceBuffer (see EngineOptions::trace_sampling).
  bool SampleTrace() {
    const double s = options_.trace_sampling;
    if (s <= 0.0) return false;
    if (s >= 1.0) return true;
    const auto period = static_cast<std::uint64_t>(1.0 / s + 0.5);
    return trace_seq_.fetch_add(1, std::memory_order_relaxed) % period == 0;
  }

  /// Keeps the rendered Chrome JSON of the most recently completed traced
  /// statement, for piserver's GET /trace endpoint.
  void StoreLastTrace(std::string json);
  /// The stored trace JSON; empty when no statement has been traced yet.
  std::string LastTraceJson() const;

  /// Installs (or, with nullptr, removes) the provider behind
  /// `pi_stats.connections` — the network server registers a snapshot of
  /// its live connections at Start and deregisters at Stop.
  void SetConnectionsProvider(
      std::function<std::vector<obs::ConnectionInfo>()> provider);
  /// The provider's current snapshot; empty when no server is attached.
  std::vector<obs::ConnectionInfo> ConnectionsSnapshot() const;

  /// The engine's memory-accounting node (parented under the process
  /// root, enforcing EngineOptions::engine_memory_limit). Per-query
  /// trackers parent under it; the server parents its frame/result-queue
  /// tracker under it too.
  obs::MemoryTracker& memory() { return *mem_tracker_; }

  /// Installs (or, with nullptr, removes) the server's frame/result-queue
  /// tracker so `pi_stats.memory` can report it — the network server
  /// registers at Start and deregisters at Stop.
  void SetServerMemoryTracker(obs::MemoryTracker* tracker);
  /// Copies the registered server tracker's figures; false when no server
  /// is attached. Sampling runs with the registration lock held, so
  /// SetServerMemoryTracker(nullptr) is a barrier: once it returns, no
  /// sampler still touches the removed tracker.
  bool SampleServerMemory(obs::MemoryTrackerSample* out) const;

  /// Resident bytes of every catalog table (columns, PDT deltas,
  /// retained MVCC versions), computed pull-style — the complement of
  /// the transient bytes the tracker hierarchy accounts. Feeds the
  /// pidx_memory_bytes gauge and pi_stats.memory.
  std::uint64_t ApproxResidentBytes() const;

  /// The WAL/checkpoint subsystem; null when EngineOptions::durability is
  /// disabled *or* recovery failed (the engine then runs volatile —
  /// check recovery_status()).
  DurabilityManager* durability() { return durability_.get(); }

  /// Outcome of the constructor's recovery pass. Non-OK means the data
  /// directory could not be locked or its contents could not be restored;
  /// durable logging is then disabled and the catalog may hold a partial
  /// recovery — servers should refuse to start.
  const Status& recovery_status() const { return recovery_status_; }

  /// Checkpoints every durable table (snapshot + WAL truncation), each
  /// under its exclusive lock — a writer–writer lock, so readers keep
  /// scanning their pinned versions throughout. The snapshot data is
  /// sourced from the table's pinned published version when it is
  /// current (it is immutable and byte-identical to the committed head);
  /// the live head is used otherwise. Returns the first failure, after
  /// trying all tables. A no-op without durability.
  Status Checkpoint();

  Session CreateSession();

 private:
  friend class Session;
  friend class PreparedStatement;

  /// Hot-path handles into `metrics_`, resolved once at construction. All
  /// null when EngineOptions::enable_metrics is false, so call sites test
  /// one pointer and skip recording entirely.
  struct MetricSet {
    obs::Counter* read_queries = nullptr;
    obs::Counter* update_queries = nullptr;
    obs::Counter* sql_statements = nullptr;
    obs::Histogram* query_latency_us = nullptr;
    obs::Histogram* phase_parse_us = nullptr;
    obs::Histogram* phase_bind_us = nullptr;
    obs::Histogram* phase_optimize_us = nullptr;
    obs::Histogram* phase_execute_us = nullptr;
    obs::Histogram* phase_commit_us = nullptr;
    /// Wait-event histograms: time blocked on a table's writer lock and
    /// time tasks sat in the thread pool's queue before a worker picked
    /// them up.
    obs::Histogram* wait_table_lock_us = nullptr;
    obs::Histogram* wait_pool_queue_us = nullptr;
  };

  EngineOptions options_;
  Catalog catalog_;
  std::unique_ptr<obs::MemoryTracker> mem_tracker_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<DurabilityManager> durability_;
  Status recovery_status_;
  MetricSet m_;
  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<std::uint64_t> trace_seq_{0};
  /// Guards the pull-style introspection state below (cold paths only).
  mutable std::mutex obs_mu_;
  std::function<std::vector<obs::ConnectionInfo>()> connections_provider_;
  std::string last_trace_json_;
  obs::MemoryTracker* server_mem_tracker_ = nullptr;
};

/// A client handle onto the engine. Sessions are cheap to create, hold
/// only their execution-path counters, and may be used from different
/// threads (each call acquires the table locks it needs; the counters
/// are atomic).
///
/// Concurrency: a read query pins each scanned table's published
/// immutable TableVersion through an epoch guard and runs lock-free — see
/// engine/read_pin.h for the full resolution order. Update queries and
/// DDL take the table's exclusive lock, which therefore only ever
/// serializes writers against writers (and checkpoints).
///
/// Lock ordering: a read query takes a shared lock only for a head
/// mutated outside the commit protocol, in ascending lock-address order;
/// update queries and DDL take a single exclusive table lock. The
/// catalog's own map mutex is never held while a table lock is acquired.
/// This total order makes deadlock between any mix of concurrent
/// sessions impossible.
class Session {
 public:
  /// Runs a read query: optimizes `plan` against the catalog's indexes,
  /// then executes it in parallel where supported (serial fallback
  /// otherwise — see ParallelPlanSupported in engine/executor.h for the
  /// supported shapes). Every catalog table the plan scans is protected
  /// for the duration of the query — by an epoch-pinned immutable
  /// version (lock-free; the passed plan is never mutated), or by a
  /// shared lock for a head mutated outside the commit protocol.
  Result<QueryResult> Execute(LogicalPtr plan);

  /// Same, with per-query optimizer options overriding the engine's.
  Result<QueryResult> Execute(LogicalPtr plan,
                              const OptimizerOptions& optimizer);

  /// Runs an update query against a catalog table under its exclusive
  /// lock: routes each delta to its owning partition (rows are addressed
  /// by table-global rowIDs; inserts go to the least-loaded partition),
  /// buffers them in the partitions' PDTs, then commits partition-locally
  /// — per dirty partition the full §5 protocol (update handling,
  /// checkpoint, post-checkpoint maintenance) runs on the engine's thread
  /// pool, partitions in parallel, via
  /// PatchIndexManager::CommitUpdateQuery(PartitionedTable&).
  ///
  /// All-or-nothing index contract: on an index-maintenance failure the
  /// data change still commits, exactly the broken indexes are dropped,
  /// and a kConstraintViolation status reports it — a registered index is
  /// never left silently stale.
  Status ExecuteUpdate(const std::string& table, UpdateQuery query);

  /// Like ExecuteUpdate, but the delta is computed from the table's
  /// current state by `build`, *under the same exclusive lock* that
  /// applies it — the SQL UPDATE/DELETE path (find the matching rows,
  /// then change them) needs the two steps atomic against concurrent
  /// writers. `build` must not touch other catalog tables (lock order).
  Status ExecuteUpdateWith(
      const std::string& table,
      const std::function<Result<UpdateQuery>(const PartitionedTable&)>&
          build);

  /// Parses, binds and runs one SQL text statement (see sql/parser.h for
  /// the grammar). SELECTs return rows with column_names set; INSERT /
  /// UPDATE / DELETE return rows_affected. `params` supplies values for
  /// `?` placeholders in statement order. One-shot convenience over
  /// Prepare(sql) + Execute(params).
  Result<QueryResult> Sql(std::string_view sql, std::vector<Value> params = {});

  /// Parses and binds `sql` once for repeated execution. The bound plan
  /// is cached in the returned statement; each Execute re-runs only the
  /// PatchIndex rewriter and the executor.
  Result<PreparedStatement> Prepare(std::string_view sql);

  /// The optimized plan of a SQL statement as an indented tree (see
  /// optimizer/explain.h) — shows which PatchIndex rewrites fire. DML
  /// statements render their delta and, for UPDATE/DELETE, the row-
  /// matching plan.
  Result<std::string> Explain(std::string_view sql);

  /// Creates a PatchIndex on a catalog table (exclusive lock; the table
  /// must have no pending deltas). On a partitioned table this registers
  /// one index per partition — discovery runs partition-locally and in
  /// parallel (paper §3.2).
  Status CreatePatchIndex(const std::string& table, std::size_t column,
                          ConstraintKind constraint,
                          PatchIndexOptions options = {});

  /// Which execution path this session's queries took so far. Shared by
  /// all copies of this Session; monotonically increasing.
  const ExecPathCounters& path_counters() const { return *counters_; }

  /// Engine-wide id of this session, assigned by CreateSession. Shown in
  /// pi_stats.queries / pi_stats.active_queries.
  std::uint64_t session_id() const { return session_id_; }

  /// Tags this session's statements with the server connection they
  /// arrive on (-1, the default, marks in-process sessions). Set once by
  /// the server when it binds a session to an accepted connection.
  void set_connection_id(std::int64_t id) { connection_id_ = id; }
  std::int64_t connection_id() const { return connection_id_; }

 private:
  friend class Engine;
  friend class PreparedStatement;
  explicit Session(Engine* engine)
      : engine_(engine),
        counters_(std::make_shared<ExecPathCounters>()),
        session_id_(
            engine->next_session_id_.fetch_add(1,
                                               std::memory_order_relaxed)) {}

  /// The one read-query execution path. Phase spans (optimize/execute),
  /// execution flags and pool size go into `profile` when non-null;
  /// `profile_ops` additionally wraps every operator to measure rows and
  /// per-worker wall time (EXPLAIN ANALYZE), filling `profile->ops`.
  /// Engine metric recording is independent of both and gated only by
  /// EngineOptions::enable_metrics.
  /// `active` (when non-null) is the statement's flight-recorder handle —
  /// the phase advances to optimize/execute as the query moves; `trace`
  /// (when non-null) collects phase and executor spans.
  Result<QueryResult> ExecuteProfiled(
      LogicalPtr plan, const OptimizerOptions& optimizer,
      obs::QueryProfile* profile, bool profile_ops,
      const obs::FlightRecorder::Handle& active = {},
      obs::TraceBuffer* trace = nullptr);

  /// ExecuteUpdateWith plus phase measurement: lock-wait, delta build
  /// (`execute`) and commit spans go into `profile` when non-null, and
  /// into the engine's phase histograms when metrics are enabled.
  /// `commit_csn` (when non-null) receives the WAL commit sequence number
  /// the statement committed under, untouched for volatile tables.
  Status ExecuteUpdateWithProfiled(
      const std::string& table,
      const std::function<Result<UpdateQuery>(const PartitionedTable&)>&
          build,
      obs::QueryProfile* profile,
      const obs::FlightRecorder::Handle& active = {},
      obs::TraceBuffer* trace = nullptr, std::int64_t* commit_csn = nullptr);

  Engine* engine_;
  std::shared_ptr<ExecPathCounters> counters_;
  std::uint64_t session_id_;
  std::int64_t connection_id_ = -1;
};

/// A parsed-and-bound SQL statement, created by Session::Prepare. Holds
/// the bound LogicalNode plan (or DML delta expressions) so repeated
/// executions skip the front end entirely; `?` parameters are rebound per
/// Execute call. Copies share the underlying statement. One statement
/// must not be executed from two threads at once (the parameter slots are
/// shared); distinct statements are independent. Like any retained plan,
/// a prepared statement is invalidated by dropping a table it references.
class PreparedStatement {
 public:
  /// Runs the statement with `params` bound to the `?` placeholders in
  /// order. Parameter values must match the inferred slot types (INT64
  /// widens to DOUBLE).
  Result<QueryResult> Execute(std::vector<Value> params = {});

  std::size_t num_params() const;
  const std::string& sql() const;

 private:
  friend class Session;
  struct Impl;
  explicit PreparedStatement(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_ENGINE_H_
