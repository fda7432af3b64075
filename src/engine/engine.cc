#include "engine/engine.h"

#include <algorithm>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/check.h"
#include "common/epoch_gc.h"
#include "common/timer.h"
#include "engine/read_pin.h"
#include "exec/operator.h"
#include "optimizer/scan_pruning.h"

namespace patchindex {

UpdateQuery UpdateQuery::Insert(std::vector<Row> rows) {
  UpdateQuery q;
  q.inserts = std::move(rows);
  return q;
}

UpdateQuery UpdateQuery::Delete(std::vector<RowId> rows) {
  UpdateQuery q;
  q.deletes = std::move(rows);
  return q;
}

UpdateQuery UpdateQuery::Modify(std::vector<CellUpdate> cells) {
  UpdateQuery q;
  q.modifies = std::move(cells);
  return q;
}

Engine::Engine(EngineOptions options) : options_(options) {
  // The engine's accounting node, parented under the process root. Every
  // per-query tracker (and the server's queue tracker) parents under it,
  // so engine_memory_limit bounds all concurrently tracked bytes.
  mem_tracker_ = std::make_unique<obs::MemoryTracker>(
      "engine", &obs::ProcessMemoryRoot(), options_.engine_memory_limit);
  std::size_t threads = options_.num_threads;
  if (threads == 0) {
    // Hardware concurrency, or the PI_THREADS override — deployments
    // (piserver) and CI size default-configured engines without
    // recompiling.
    threads = DefaultThreadCount();
  }
  pool_ = std::make_unique<ThreadPool>(threads);

  // Metrics and the flight recorder come up before durability so the
  // recovery pass (log resets checkpoint, fsyncs) is already instrumented.
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  recorder_ =
      std::make_unique<obs::FlightRecorder>(options_.flight_recorder_capacity);
  if (options_.enable_metrics) {
    obs::MetricsRegistry& r = *metrics_;
    m_.read_queries = r.GetCounter(
        "pidx_read_queries_total", "Read queries executed (plans and SQL)");
    m_.update_queries = r.GetCounter("pidx_update_queries_total",
                                     "Update queries committed");
    m_.sql_statements = r.GetCounter("pidx_sql_statements_total",
                                     "SQL statements executed");
    m_.query_latency_us = r.GetHistogram(
        "pidx_query_latency_us", "End-to-end SQL statement latency");
    m_.phase_parse_us =
        r.GetHistogram("pidx_phase_parse_us", "SQL parse phase");
    m_.phase_bind_us = r.GetHistogram("pidx_phase_bind_us", "Bind phase");
    m_.phase_optimize_us =
        r.GetHistogram("pidx_phase_optimize_us", "Plan optimization phase");
    m_.phase_execute_us = r.GetHistogram(
        "pidx_phase_execute_us", "Plan execution / DML delta-build phase");
    m_.phase_commit_us = r.GetHistogram(
        "pidx_phase_commit_us", "PatchIndex commit protocol phase (DML)");
    // MVCC/epoch occupancy, registered as callbacks so every render path
    // (Prometheus scrape, .stats, pi_stats.metrics) samples live values.
    // The catalog is a member and the EpochGc singleton is immortal, so
    // the callbacks stay valid for the registry's lifetime.
    const Catalog* catalog = &catalog_;
    r.SetCallback("pidx_mvcc_versions_live",
                  "Published table versions alive (current + awaiting "
                  "epoch reclamation)",
                  [catalog] {
                    return static_cast<std::uint64_t>(
                        catalog->TotalLiveVersions());
                  });
    r.SetCallback("pidx_epoch_pinned_guards",
                  "Epoch guards currently pinned (readers in flight)",
                  [] { return EpochGc::Global().GetStats().pinned; });
    r.SetCallback("pidx_epoch_retired_pending",
                  "Retired objects awaiting epoch reclamation",
                  [] { return EpochGc::Global().GetStats().retired_pending; });
    r.SetCallback("pidx_epoch_reclaimed_total",
                  "Objects reclaimed by the epoch GC since process start",
                  [] { return EpochGc::Global().GetStats().reclaimed_total; });
    // Memory accounting: tracked transient bytes (the tracker hierarchy —
    // in-flight joins, sorts, result queues) plus pull-style resident
    // bytes (catalog tables). pidx_memory_bytes is the headline figure.
    // The tracker outlives the registry (member order) and `this` owns
    // both, so the captures stay valid.
    obs::MemoryTracker* mem = mem_tracker_.get();
    const Engine* self = this;
    r.SetCallback("pidx_memory_bytes",
                  "Engine memory footprint: resident catalog-table bytes "
                  "plus tracked transient query/server bytes",
                  [self, mem] {
                    return self->ApproxResidentBytes() + mem->current();
                  });
    r.SetCallback("pidx_memory_tracked_bytes",
                  "Bytes currently charged to the engine's memory tracker",
                  [mem] { return mem->current(); });
    r.SetCallback("pidx_memory_tracked_peak_bytes",
                  "High-water mark of tracked transient bytes",
                  [mem] { return mem->peak(); });
    r.SetCallback("pidx_memory_resident_bytes",
                  "Resident bytes of catalog tables (columns + PDT deltas)",
                  [self] { return self->ApproxResidentBytes(); });
    // Wait-event histograms: the per-class contention view. The table
    // lock wait is also the DML statement's commit_wait phase, recorded
    // here only (the profile and trace carry it per statement).
    m_.wait_table_lock_us = r.GetHistogram(
        "pidx_wait_table_lock_us",
        "Wait event: time blocked acquiring a table's writer-writer lock "
        "(DML; under MVCC readers never hold it, so this measures writer "
        "contention only)");
    m_.wait_pool_queue_us = r.GetHistogram(
        "pidx_wait_pool_queue_us",
        "Wait event: time tasks sat queued in the worker pool before a "
        "worker picked them up");
    obs::Histogram* pool_wait = m_.wait_pool_queue_us;
    pool_->SetQueueWaitRecorder([pool_wait](std::uint64_t ns) {
      pool_wait->RecordNanos(static_cast<std::int64_t>(ns));
    });
  }

  if (options_.durability.enabled()) {
    durability_ = std::make_unique<DurabilityManager>(options_.durability);
    if (options_.enable_metrics) {
      obs::MetricsRegistry& r = *metrics_;
      DurabilityMetrics dm;
      dm.wal_appended_bytes =
          r.GetCounter("pidx_wal_appended_bytes_total",
                       "WAL record bytes appended by committed updates");
      dm.fsync_latency_us = r.GetHistogram(
          "pidx_fsync_latency_us", "Commit-path WAL fsync latency");
      dm.checkpoint_duration_us = r.GetHistogram(
          "pidx_checkpoint_duration_us", "Table checkpoint wall time");
      dm.wait_fsync_us = r.GetHistogram(
          "pidx_wait_fsync_us",
          "Wait event: commit blocked on the WAL fsync (the durability "
          "stall every committed update pays)");
      durability_->SetMetrics(dm);
    }
    recovery_status_ = durability_->Open();
    if (recovery_status_.ok()) {
      recovery_status_ = durability_->Recover(&catalog_, pool_.get());
    }
    if (!recovery_status_.ok()) {
      // Fail volatile: without a trustworthy log, appending to it could
      // compound the damage. recovery_status() tells callers (piserver
      // refuses to start; tests assert on it).
      durability_.reset();
    } else if (options_.enable_metrics) {
      obs::MetricsRegistry& r = *metrics_;
      const RecoveryReport& report = durability_->last_recovery();
      r.GetGauge("pidx_recovery_tables", "Tables restored by recovery")
          ->Set(static_cast<std::int64_t>(report.tables));
      r.GetGauge("pidx_recovery_records_replayed",
                 "WAL records replayed by recovery")
          ->Set(static_cast<std::int64_t>(report.records_replayed));
      r.GetGauge("pidx_recovery_commits_dropped",
                 "Unacknowledged trailing commits dropped by recovery")
          ->Set(static_cast<std::int64_t>(report.commits_dropped));
      r.GetGauge("pidx_recovery_indexes_restored",
                 "PatchIndexes restored from checkpoints by recovery")
          ->Set(static_cast<std::int64_t>(report.indexes_restored));
      r.GetGauge("pidx_recovery_indexes_rebuilt",
                 "PatchIndexes rebuilt by discovery after recovery")
          ->Set(static_cast<std::int64_t>(report.indexes_rebuilt));
    }
  }
}

Engine::~Engine() {
  // Members destruct in reverse declaration order, so pool_ outlives
  // metrics_ — detach the queue-wait recorder (it records into a
  // metrics-owned histogram) before any member goes away.
  if (pool_ != nullptr) {
    pool_->SetQueueWaitRecorder(nullptr);
    pool_->WaitIdle();
  }
}

std::uint64_t Engine::ApproxResidentBytes() const {
  // MVCC snapshots share un-mutated base columns with the live head
  // (copy-on-write), so summing the heads alone avoids double-counting
  // the common case; deep-copied PDT clones and un-shared columns held
  // only by retired versions are missed. An approximation, recomputed on
  // every pull (metrics scrape, pi_stats.memory).
  std::uint64_t total = 0;
  for (const std::string& name : catalog_.TableNames()) {
    Catalog::TableRef ref = catalog_.Ref(name);
    if (!ref) continue;
    std::shared_lock<std::shared_mutex> lock(*ref.lock);
    if (catalog_.FindPartitionedTable(name) != ref.ptable) continue;
    total += ref.ptable->MemoryUsageBytes();
  }
  return total;
}

void Engine::StoreLastTrace(std::string json) {
  std::lock_guard<std::mutex> lock(obs_mu_);
  last_trace_json_ = std::move(json);
}

std::string Engine::LastTraceJson() const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  return last_trace_json_;
}

void Engine::SetConnectionsProvider(
    std::function<std::vector<obs::ConnectionInfo>()> provider) {
  std::lock_guard<std::mutex> lock(obs_mu_);
  connections_provider_ = std::move(provider);
}

std::vector<obs::ConnectionInfo> Engine::ConnectionsSnapshot() const {
  // Invoked with obs_mu_ held so SetConnectionsProvider(nullptr) is a
  // barrier: once it returns, no snapshot is still inside the removed
  // provider (the server deregisters before tearing down the state the
  // provider reads). Safe because providers only take their own locks.
  std::lock_guard<std::mutex> lock(obs_mu_);
  if (connections_provider_ == nullptr) return {};
  return connections_provider_();
}

void Engine::SetServerMemoryTracker(obs::MemoryTracker* tracker) {
  std::lock_guard<std::mutex> lock(obs_mu_);
  server_mem_tracker_ = tracker;
}

bool Engine::SampleServerMemory(obs::MemoryTrackerSample* out) const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  if (server_mem_tracker_ == nullptr) return false;
  out->name = server_mem_tracker_->name();
  out->current_bytes = server_mem_tracker_->current();
  out->peak_bytes = server_mem_tracker_->peak();
  out->limit_bytes = server_mem_tracker_->limit();
  return true;
}

Session Engine::CreateSession() { return Session(this); }

Status Engine::Checkpoint() {
  if (durability_ == nullptr) return Status::OK();
  Status first;
  for (const std::string& name : catalog_.TableNames()) {
    Catalog::TableRef ref = catalog_.Ref(name);
    if (!ref) continue;
    // Exclusive = writer–writer: the lock fences concurrent commits
    // (WAL truncation must not race an append) but never blocks readers,
    // who keep scanning their pinned versions.
    std::unique_lock<std::shared_mutex> exclusive(*ref.lock);
    if (catalog_.FindPartitionedTable(name) != ref.ptable) continue;
    Status st;
    {
      // Checkpoint from the pinned published version when it is current:
      // the snapshot is immutable (no COW surprises mid-write) and
      // byte-identical to the committed head. A stale version (direct
      // unpublished mutations) falls back to the head + live indexes.
      EpochGc::Guard guard(EpochGc::Global());
      const TableVersion* version = catalog_.PinnedVersion(ref);
      if (version != nullptr &&
          Catalog::VersionMatchesHead(*version, *ref.ptable)) {
        st = durability_->CheckpointTable(name, *version->snapshot,
                                          version->indexes);
      } else {
        st = durability_->CheckpointTable(name, *ref.ptable,
                                          catalog_.manager());
      }
    }
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

namespace {

void CollectScanNodes(const LogicalNode& node,
                      std::vector<const LogicalNode*>* scans) {
  if (node.kind == LogicalNode::Kind::kScan) scans->push_back(&node);
  for (const auto& child : node.children) {
    CollectScanNodes(*child, scans);
  }
}

}  // namespace

void CollectPlanTableRefs(const LogicalNode& plan, const Catalog& catalog,
                          std::vector<Catalog::TableRef>* refs) {
  std::vector<const LogicalNode*> scans;
  CollectScanNodes(plan, &scans);
  for (const LogicalNode* scan : scans) {
    Catalog::TableRef ref;
    if (scan->ptable != nullptr) {
      ref = catalog.Ref(*scan->ptable);
    } else if (scan->table != nullptr) {
      ref = catalog.Ref(*scan->table);
    }
    if (ref) refs->push_back(std::move(ref));
  }
  std::sort(refs->begin(), refs->end(),
            [](const Catalog::TableRef& a, const Catalog::TableRef& b) {
              return a.lock < b.lock;
            });
  refs->erase(std::unique(refs->begin(), refs->end(),
                          [](const Catalog::TableRef& a,
                             const Catalog::TableRef& b) {
                            return a.lock == b.lock;
                          }),
              refs->end());
}

Result<QueryResult> Session::Execute(LogicalPtr plan) {
  return ExecuteProfiled(std::move(plan), engine_->options_.optimizer,
                         /*profile=*/nullptr, /*profile_ops=*/false);
}

Result<QueryResult> Session::Execute(LogicalPtr plan,
                                     const OptimizerOptions& optimizer) {
  return ExecuteProfiled(std::move(plan), optimizer, /*profile=*/nullptr,
                         /*profile_ops=*/false);
}

Result<QueryResult> Session::ExecuteProfiled(
    LogicalPtr plan, const OptimizerOptions& optimizer,
    obs::QueryProfile* profile, bool profile_ops,
    const obs::FlightRecorder::Handle& active, obs::TraceBuffer* trace) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  const Engine::MetricSet& m = engine_->m_;

  // Per-query memory accounting: reuse the statement tracker the SQL
  // session installed, or make one here for the bare-plan API so
  // Execute(plan) callers get the same budget enforcement.
  obs::MemoryTracker* query_mem = obs::CurrentQueryTracker();
  std::optional<obs::MemoryTracker> local_mem;
  std::optional<obs::ScopedQueryTracker> local_scope;
  if (query_mem == nullptr) {
    local_mem.emplace("query", &engine_->memory(),
                      engine_->options_.query_memory_limit);
    local_scope.emplace(&*local_mem);
    query_mem = &*local_mem;
  }

  if (active != nullptr) {
    obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kOptimize);
  }
  WallTimer optimize_timer;
  LogicalPtr optimized;
  // Protect every catalog table the plan scans for the statement's
  // duration. Each table resolves to its pinned published version
  // (lock-free; the plan is cloned and its scans retargeted at the
  // immutable snapshots), with a shared lock only for a head mutated
  // outside the commit protocol. The refs keep the tables alive even if
  // a concurrent DropTable de-catalogs them mid-query. Pinning is part of
  // the optimize phase, so its time is attributed.
  std::optional<PinnedReadSet> pin;
  {
    obs::TraceSpan span(trace, "optimize", 0);
    pin.emplace(engine_->catalog_, &plan);
    // Pruning describes this execution's table state and parameters, so
    // it goes on a private copy: a plan the caller keeps and compiles
    // later must never carry stale block ranges.
    optimized = ClonePlan(
        OptimizePlan(std::move(plan), pin->indexes(), optimizer));
    AnnotateScanPruning(optimized.get());
  }
  const std::int64_t optimize_ns = optimize_timer.ElapsedNanos();

  obs::ExecProfile exec_profile;
  obs::ExecProfile* ops = profile_ops ? &exec_profile : nullptr;

  if (active != nullptr) {
    obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kExecute);
  }
  QueryResult result;
  ParallelExecOptions parallel_options;
  parallel_options.morsel_rows = engine_->options_.morsel_rows;
  parallel_options.min_parallel_rows = engine_->options_.min_parallel_rows;
  parallel_options.profile = ops;
  parallel_options.trace = trace;
  parallel_options.memory = query_mem;
  ParallelExecReport report;
  WallTimer execute_timer;
  obs::TraceSpan execute_span(trace, "execute", 0);
  try {
    if (engine_->options_.enable_parallel_execution &&
        ExecuteParallel(*optimized, engine_->pool(), parallel_options,
                        &result.rows, &report)) {
      result.parallel = true;
      result.parallel_join = report.parallel_join;
      result.parallel_sort = report.parallel_sort;
      if (report.parallel_join) counters_->parallel_joins.fetch_add(1);
      if (report.parallel_sort) counters_->parallel_sorts.fetch_add(1);
      if (!report.parallel_join && !report.parallel_sort) {
        counters_->parallel_pipelines.fetch_add(1);
      }
    } else {
      OperatorPtr op = CompilePlan(optimized, optimizer, ops);
      result.rows = Collect(*op);
      counters_->serial_fallbacks.fetch_add(1);
    }
  } catch (const obs::ResourceExhaustedError& e) {
    // The statement unwound cleanly: AwaitAll drained every worker
    // before rethrowing, so no task still references the result slots or
    // the pinned versions. Session and engine stay fully usable.
    return Status::ResourceExhausted(e.what());
  }
  const std::int64_t execute_ns = execute_timer.ElapsedNanos();

  if (m.read_queries != nullptr) {
    m.read_queries->Add(1);
    m.phase_optimize_us->RecordNanos(optimize_ns);
    m.phase_execute_us->RecordNanos(execute_ns);
  }
  if (profile != nullptr) {
    profile->optimize_ms = static_cast<double>(optimize_ns) / 1e6;
    profile->execute_ms = static_cast<double>(execute_ns) / 1e6;
    profile->parallel = result.parallel;
    profile->parallel_join = result.parallel_join;
    profile->parallel_sort = result.parallel_sort;
    profile->pool_workers = engine_->pool().num_threads();
    profile->peak_mem_bytes = query_mem->peak();
    if (ops != nullptr) obs::FillOpProfiles(*optimized, exec_profile, profile);
  }
  return result;
}

namespace {

std::uint64_t ApproxValueBytes(const Value& v) {
  return sizeof(Value) +
         (v.type() == ColumnType::kString ? v.AsString().size() : 0);
}

/// Content-based size of an update query's delta — what buffering it in
/// the PDTs will roughly cost. Charged to the per-query tracker before
/// ApplyUpdateLocked, the last point where nothing is buffered yet and an
/// over-budget statement can abort without any rollback.
std::uint64_t ApproxUpdateBytes(const UpdateQuery& q) {
  std::uint64_t total = q.deletes.size() * sizeof(RowId);
  for (const Row& row : q.inserts) {
    for (const Value& v : row.cells) total += ApproxValueBytes(v);
  }
  for (const CellUpdate& c : q.modifies) {
    total += sizeof(CellUpdate) + ApproxValueBytes(c.value);
  }
  return total;
}

/// The buffer-and-commit phase of an update query, with the table's
/// exclusive lock already held by the caller. Validates before buffering
/// so a rejected query leaves no partial PDT (including cell types: a
/// wrong-typed value would otherwise surface as an exception out of the
/// index update handlers). Deltas are routed to their owning partitions
/// — rows are addressed by table-global rowIDs — and the dirty
/// partitions commit partition-locally, in parallel on `pool`. After the
/// commit protocol folds the deltas, the new state is published as an
/// immutable TableVersion (`catalog.PublishVersion`) — the point at
/// which MVCC readers start seeing this statement's effects.
Status ApplyUpdateLocked(Catalog& catalog, const Catalog::TableRef& ref,
                         const std::string& name,
                         DurabilityManager* durability, ThreadPool* pool,
                         UpdateQuery query, std::int64_t* commit_csn) {
  PartitionedTable* table = ref.ptable;
  PatchIndexManager& manager = catalog.manager();
  const int kinds = (query.inserts.empty() ? 0 : 1) +
                    (query.deletes.empty() ? 0 : 1) +
                    (query.modifies.empty() ? 0 : 1);
  if (kinds == 0) return Status::OK();
  if (kinds > 1) {
    return Status::InvalidArgument(
        "update query must contain exactly one delta kind (one SQL "
        "statement inserts, modifies or deletes)");
  }

  const Schema& schema = table->schema();
  const std::uint64_t num_rows = table->num_rows();
  for (const Row& row : query.inserts) {
    if (row.cells.size() != schema.num_fields()) {
      return Status::InvalidArgument("insert row arity mismatch");
    }
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      if (row.cells[c].type() != schema.field(c).type) {
        return Status::InvalidArgument("insert value type mismatch");
      }
    }
  }
  for (RowId row : query.deletes) {
    if (row >= num_rows) {
      return Status::OutOfRange("delete position beyond base table");
    }
  }
  for (const CellUpdate& cell : query.modifies) {
    if (cell.row >= num_rows) {
      return Status::OutOfRange("modify position beyond base table");
    }
    if (cell.column >= schema.num_fields()) {
      return Status::InvalidArgument("modify column out of range");
    }
    if (cell.value.type() != schema.field(cell.column).type) {
      return Status::InvalidArgument("modify value type mismatch");
    }
  }

  for (Row& row : query.inserts) table->BufferInsert(std::move(row));
  for (RowId row : query.deletes) {
    const PartitionedTable::RowLocation loc = table->ResolveRow(row);
    PIDX_RETURN_NOT_OK(
        table->partition(loc.partition).BufferDelete(loc.local_row));
  }
  for (CellUpdate& cell : query.modifies) {
    const PartitionedTable::RowLocation loc = table->ResolveRow(cell.row);
    PIDX_RETURN_NOT_OK(table->partition(loc.partition)
                           .BufferModify(loc.local_row, cell.column,
                                         std::move(cell.value)));
  }
  // Write-ahead: the routed, partition-local deltas go to the log (and
  // to stable storage) before the commit protocol publishes them. The
  // WAL fsync remains the commit point. A log failure aborts the whole
  // commit — the buffered PDTs are discarded and nothing becomes
  // visible; republishing after the discard refreshes the version's
  // partition seqs so readers return to the lock-free path.
  std::int64_t csn = -1;
  if (durability != nullptr) {
    Status logged = durability->LogCommit(name, *table, &csn);
    if (!logged.ok()) {
      table->DiscardPdt();
      catalog.PublishVersion(ref, 0);
      return logged;
    }
  }
  Status committed = manager.CommitUpdateQuery(*table, pool);
  if (committed.ok() ||
      committed.code() == StatusCode::kConstraintViolation) {
    // Publish the committed state (kConstraintViolation included: the
    // data change committed, exactly the broken indexes were dropped).
    // Untouched partitions carry their snapshots and index clones over
    // from the previous version — a single-row UPDATE clones one
    // partition, not the table.
    catalog.PublishVersion(ref, csn > 0 ? static_cast<std::uint64_t>(csn)
                                        : 0);
  }
  if (commit_csn != nullptr && csn >= 0) *commit_csn = csn;
  if (durability != nullptr && durability->ShouldCheckpoint(name)) {
    // Best-effort WAL-size-triggered checkpoint: a failure leaves the
    // log growing and the next commit retries (self-healing); it never
    // affects the already-committed update.
    (void)durability->CheckpointTable(name, *table, manager);
  }
  return committed;
}

}  // namespace

Status Session::ExecuteUpdate(const std::string& table_name,
                              UpdateQuery query) {
  return ExecuteUpdateWith(
      table_name,
      [&query](const PartitionedTable&) -> Result<UpdateQuery> {
        return std::move(query);
      });
}

Status Session::ExecuteUpdateWith(
    const std::string& table_name,
    const std::function<Result<UpdateQuery>(const PartitionedTable&)>&
        build) {
  return ExecuteUpdateWithProfiled(table_name, build, /*profile=*/nullptr);
}

Status Session::ExecuteUpdateWithProfiled(
    const std::string& table_name,
    const std::function<Result<UpdateQuery>(const PartitionedTable&)>&
        build,
    obs::QueryProfile* profile, const obs::FlightRecorder::Handle& active,
    obs::TraceBuffer* trace, std::int64_t* commit_csn) {
  const Engine::MetricSet& m = engine_->m_;
  Catalog::TableRef ref = engine_->catalog_.Ref(table_name);
  if (!ref) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  PartitionedTable* table = ref.ptable;
  // Per-statement memory accounting (see ExecuteProfiled): the build
  // callback's row-matching plan and the DML delta itself charge it.
  obs::MemoryTracker* query_mem = obs::CurrentQueryTracker();
  std::optional<obs::MemoryTracker> local_mem;
  std::optional<obs::ScopedQueryTracker> local_scope;
  if (query_mem == nullptr) {
    local_mem.emplace("query", &engine_->memory(),
                      engine_->options_.query_memory_limit);
    local_scope.emplace(&*local_mem);
    query_mem = &*local_mem;
  }
  // The exclusive lock is writer–writer only under MVCC: this wait
  // measures contention against other update queries (and DDL /
  // checkpoints), never against readers. Surface the blocking table in
  // pi_stats.active_queries while we wait.
  if (active != nullptr) {
    obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kCommitWait);
    obs::FlightRecorder::SetPhaseDetail(active, table_name);
  }
  WallTimer lock_timer;
  std::unique_lock<std::shared_mutex> exclusive = [&] {
    obs::TraceSpan span(trace, "commit_wait", 0);
    return std::unique_lock<std::shared_mutex>(*ref.lock);
  }();
  const std::int64_t lock_ns = lock_timer.ElapsedNanos();
  if (active != nullptr) obs::FlightRecorder::SetPhaseDetail(active, "");
  // Recheck under the lock: a concurrent DropTable may have de-cataloged
  // the table between Ref() and lock acquisition.
  if (engine_->catalog_.FindPartitionedTable(table_name) != table) {
    return Status::NotFound("table '" + table_name + "' was dropped");
  }
  if (active != nullptr) {
    obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kExecute);
  }
  WallTimer build_timer;
  Result<UpdateQuery> query = [&]() -> Result<UpdateQuery> {
    obs::TraceSpan span(trace, "execute", 0);
    try {
      return build(*table);
    } catch (const obs::ResourceExhaustedError& e) {
      // The row-matching plan ran over budget; nothing is buffered yet.
      return Status::ResourceExhausted(e.what());
    }
  }();
  if (!query.ok()) return query.status();
  const std::int64_t build_ns = build_timer.ElapsedNanos();
  try {
    query_mem->Charge(ApproxUpdateBytes(query.value()), "DML delta");
  } catch (const obs::ResourceExhaustedError& e) {
    // Still pre-buffering: aborting here needs no PDT rollback.
    return Status::ResourceExhausted(e.what());
  }
  if (active != nullptr) {
    obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kCommit);
  }
  WallTimer commit_timer;
  obs::TraceSpan commit_span(trace, "commit", 0);
  Status status = ApplyUpdateLocked(
      engine_->catalog_, ref, table_name, engine_->durability_.get(),
      &engine_->pool(), std::move(query).value(), commit_csn);
  const std::int64_t commit_ns = commit_timer.ElapsedNanos();
  if (m.update_queries != nullptr) {
    m.update_queries->Add(1);
    m.wait_table_lock_us->RecordNanos(lock_ns);
    m.phase_execute_us->RecordNanos(build_ns);
    m.phase_commit_us->RecordNanos(commit_ns);
  }
  if (profile != nullptr) {
    profile->commit_wait_ms = static_cast<double>(lock_ns) / 1e6;
    profile->execute_ms = static_cast<double>(build_ns) / 1e6;
    profile->commit_ms = static_cast<double>(commit_ns) / 1e6;
    profile->peak_mem_bytes = query_mem->peak();
  }
  return status;
}

Status Session::CreatePatchIndex(const std::string& table_name,
                                 std::size_t column,
                                 ConstraintKind constraint,
                                 PatchIndexOptions options) {
  Catalog::TableRef ref = engine_->catalog_.Ref(table_name);
  if (!ref) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  PartitionedTable* table = ref.ptable;
  std::unique_lock<std::shared_mutex> exclusive(*ref.lock);
  // Recheck under the lock (see ExecuteUpdate): registering an index on a
  // concurrently dropped table would leave it dangling in the manager.
  if (engine_->catalog_.FindPartitionedTable(table_name) != table) {
    return Status::NotFound("table '" + table_name + "' was dropped");
  }
  if (!table->pdt_empty()) {
    return Status::InvalidArgument(
        "table has pending deltas; commit the update query first");
  }
  if (column >= table->schema().num_fields()) {
    return Status::InvalidArgument("index column out of range");
  }
  if (table->schema().field(column).type != ColumnType::kInt64) {
    return Status::InvalidArgument(
        "approximate constraints are defined over INT64 columns");
  }
  // Which partitions already carry this (column, constraint) index? A
  // commit-time maintenance failure drops exactly the broken partition's
  // index, so coverage can be partial — re-creating then fills only the
  // gaps instead of failing with AlreadyExists forever.
  std::vector<bool> covered(table->num_partitions(), false);
  for (const PatchIndex* idx :
       engine_->catalog_.manager().IndexesOn(*table)) {
    if (idx->column() != column || idx->constraint() != constraint) continue;
    for (std::size_t p = 0; p < table->num_partitions(); ++p) {
      if (&idx->table() == &table->partition(p)) covered[p] = true;
    }
  }
  std::size_t missing = 0;
  for (bool c : covered) missing += c ? 0 : 1;
  if (missing == 0) {
    return Status::AlreadyExists(
        "an index of this constraint already exists on the column");
  }
  std::vector<PatchIndex*> created;
  if (missing == table->num_partitions()) {
    // One index per partition, created partition-locally in parallel
    // (paper §3.2); a single-partition table degenerates to one index.
    created = engine_->catalog_.manager().CreatePartitionedIndex(
        *table, column, constraint, options);
  } else {
    for (std::size_t p = 0; p < table->num_partitions(); ++p) {
      if (covered[p]) continue;
      created.push_back(engine_->catalog_.manager().CreateIndex(
          table->partition(p), column, constraint, options));
    }
  }
  if (engine_->durability_ != nullptr) {
    Status logged = engine_->durability_->LogCreateIndex(table_name, column,
                                                         constraint,
                                                         options.ascending);
    if (!logged.ok()) {
      // Un-create: an index that exists in memory but not in the catalog
      // log would silently vanish on restart.
      for (PatchIndex* idx : created) {
        engine_->catalog_.manager().DropIndex(idx);
      }
      return logged;
    }
  }
  // Publish a fresh version so pinned readers see the new index state;
  // reindex forces every partition to re-snapshot (the data did not
  // change, so seq-based reuse would otherwise skip the index clones).
  engine_->catalog_.PublishVersion(ref, /*csn=*/0, /*reindex=*/true);
  return Status::OK();
}

}  // namespace patchindex
