// Engine-side materialization of the pi_stats system schema: the binder
// resolves pi_stats.* names against static placeholders (obs/
// system_tables.h); per execution this module swaps each tagged scan's
// placeholder for a table filled from live engine state, so the existing
// scan/filter/project/aggregate operators serve system data unchanged.

#include "engine/system_tables.h"

#include <cmath>
#include <shared_mutex>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/system_tables.h"

namespace patchindex {

namespace {

Value I(std::int64_t v) { return Value(v); }
Value I(std::uint64_t v) { return Value(static_cast<std::int64_t>(v)); }
Value D(double v) { return Value(v); }
Value S(std::string v) { return Value(std::move(v)); }

void FillMetrics(Engine* engine, Table* out) {
  for (const obs::MetricSample& s : engine->metrics().SnapshotAll()) {
    Row r;
    r.cells = {S(s.name),
               S(std::string(s.kind)),
               I(s.value),
               I(s.count),
               I(s.sum_us),
               I(static_cast<std::int64_t>(std::llround(s.p50_us))),
               I(static_cast<std::int64_t>(std::llround(s.p95_us))),
               I(static_cast<std::int64_t>(std::llround(s.p99_us)))};
    out->AppendRow(r);
  }
}

void FillQueries(Engine* engine, Table* out) {
  for (const obs::QueryRecord& q : engine->recorder().CompletedSnapshot()) {
    Row r;
    r.cells = {I(q.query_id),
               I(q.session_id),
               I(q.connection_id),
               S(q.sql),
               S(q.status),
               S(q.error),
               I(q.rows_returned),
               I(q.rows_affected),
               I(std::int64_t{q.parallel ? 1 : 0}),
               I(q.csn),
               I(q.start_unix_us),
               D(q.total_ms)};
    for (const obs::PhaseInfo& p : obs::kPhases) r.cells.push_back(D(q.*p.ms));
    r.cells.push_back(I(q.peak_mem_bytes));
    out->AppendRow(r);
  }
}

void FillActiveQueries(Engine* engine, Table* out) {
  for (const obs::ActiveQuery& q : engine->recorder().ActiveSnapshot()) {
    Row r;
    r.cells = {I(q.query_id),      I(q.session_id), I(q.connection_id),
               S(q.sql),           S(q.phase),      D(q.elapsed_ms),
               I(q.start_unix_us), I(q.mem_bytes)};
    out->AppendRow(r);
  }
}

void FillConnections(Engine* engine, Table* out) {
  for (const obs::ConnectionInfo& c : engine->ConnectionsSnapshot()) {
    Row r;
    r.cells = {I(c.connection_id), I(c.session_id),  S(c.remote),
               S(c.state),         I(c.queue_depth), I(c.queries)};
    out->AppendRow(r);
  }
}

/// Per-partition delta counts of one partition's PDT.
struct PdtCounts {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t modifies = 0;
};

PdtCounts CountPdt(const Table& partition) {
  PdtCounts c;
  c.inserts = partition.pdt().inserts().size();
  c.deletes = partition.pdt().deletes().size();
  c.modifies = partition.pdt().modifies().size();
  return c;
}

/// Visits every catalog table under its shared lock (one at a time, never
/// nested), skipping tables dropped between listing and locking. The
/// callback also receives the resolved TableRef for version-layer
/// queries (Catalog::VersionStatsFor).
template <typename Fn>
void ForEachTableLocked(Engine* engine, Fn fn) {
  Catalog& catalog = engine->catalog();
  for (const std::string& name : catalog.TableNames()) {
    Catalog::TableRef ref = catalog.Ref(name);
    if (!ref) continue;
    std::shared_lock<std::shared_mutex> guard(*ref.lock);
    if (catalog.FindPartitionedTable(name) != ref.ptable) continue;
    fn(name, ref, *ref.ptable);
  }
}

void FillTables(Engine* engine, Table* out) {
  ForEachTableLocked(engine, [&](const std::string& name,
                                 const Catalog::TableRef& ref,
                                 const PartitionedTable& table) {
    std::uint64_t rows = 0;
    PdtCounts pdt;
    for (std::size_t p = 0; p < table.num_partitions(); ++p) {
      rows += table.partition(p).num_rows();
      const PdtCounts c = CountPdt(table.partition(p));
      pdt.inserts += c.inserts;
      pdt.deletes += c.deletes;
      pdt.modifies += c.modifies;
    }
    const std::size_t indexes =
        engine->catalog().manager().IndexesOn(table).size();
    TableDurability durable;
    if (engine->durability() != nullptr) {
      durable = engine->durability()->InspectTable(name);
    }
    const Catalog::VersionStats versions =
        engine->catalog().VersionStatsFor(ref);
    Row r;
    r.cells = {S(name),
               I(static_cast<std::uint64_t>(table.num_partitions())),
               I(rows),
               I(pdt.inserts),
               I(pdt.deletes),
               I(pdt.modifies),
               I(static_cast<std::uint64_t>(indexes)),
               I(std::int64_t{durable.tracked ? 1 : 0}),
               I(durable.wal_bytes),
               I(durable.snapshot_csn),
               I(durable.next_csn),
               I(versions.live),
               I(versions.oldest_live_csn)};
    out->AppendRow(r);
  });
}

void FillPartitions(Engine* engine, Table* out) {
  ForEachTableLocked(engine, [&](const std::string& name,
                                 const Catalog::TableRef&,
                                 const PartitionedTable& table) {
    for (std::size_t p = 0; p < table.num_partitions(); ++p) {
      const Table& part = table.partition(p);
      const PdtCounts pdt = CountPdt(part);
      std::size_t indexes = 0;
      for (const PatchIndex* idx :
           engine->catalog().manager().IndexesOn(table)) {
        if (&idx->table() == &part) ++indexes;
      }
      Row r;
      r.cells = {S(name),
                 I(static_cast<std::uint64_t>(p)),
                 I(part.num_rows()),
                 I(pdt.inserts),
                 I(pdt.deletes),
                 I(pdt.modifies),
                 I(static_cast<std::uint64_t>(indexes))};
      out->AppendRow(r);
    }
  });
}

void FillWal(Engine* engine, Table* out) {
  if (engine->durability() == nullptr) return;
  ForEachTableLocked(engine, [&](const std::string& name,
                                 const Catalog::TableRef&,
                                 const PartitionedTable&) {
    const TableDurability d = engine->durability()->InspectTable(name);
    if (!d.tracked) return;
    for (std::size_t p = 0; p < d.partition_wal_bytes.size(); ++p) {
      Row r;
      r.cells = {S(name),
                 I(static_cast<std::uint64_t>(p)),
                 I(d.partition_wal_bytes[p]),
                 I(d.snapshot_csn),
                 I(d.next_csn),
                 I(std::int64_t{d.broken ? 1 : 0})};
      out->AppendRow(r);
    }
  });
}

void FillMemory(Engine* engine, Table* out) {
  const auto tracker_row = [&](const char* scope,
                               const obs::MemoryTracker& t) {
    Row r;
    r.cells = {S(scope), S(t.name()), I(t.current()), I(t.peak()),
               I(t.limit())};
    out->AppendRow(r);
  };
  tracker_row("process", obs::ProcessMemoryRoot());
  tracker_row("engine", engine->memory());
  obs::MemoryTrackerSample server;
  if (engine->SampleServerMemory(&server)) {
    Row r;
    r.cells = {S("server"), S(server.name), I(server.current_bytes),
               I(server.peak_bytes), I(server.limit_bytes)};
    out->AppendRow(r);
  }
  // In-flight statements, sampled through the flight recorder (the
  // trackers themselves retire with their statements; the snapshot copies
  // the figures out under the recorder's lock).
  for (const obs::ActiveQuery& q : engine->recorder().ActiveSnapshot()) {
    if (q.mem_bytes == 0 && q.mem_peak_bytes == 0) continue;
    Row r;
    r.cells = {S("query"), S("query#" + std::to_string(q.query_id)),
               I(q.mem_bytes), I(q.mem_peak_bytes),
               I(engine->options().query_memory_limit)};
    out->AppendRow(r);
  }
  // Resident table state is measured pull-style, not tracked, so it has
  // no peak or limit.
  ForEachTableLocked(engine, [&](const std::string& name,
                                 const Catalog::TableRef&,
                                 const PartitionedTable& table) {
    Row r;
    r.cells = {S("table"), S(name), I(table.MemoryUsageBytes()),
               I(std::int64_t{0}), I(std::int64_t{0})};
    out->AppendRow(r);
  });
}

void FillHistograms(Engine* engine, Table* out) {
  for (const obs::NamedHistogram& h : engine->metrics().SnapshotHistograms()) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      cumulative += h.snapshot.buckets[b];
      if (h.snapshot.buckets[b] == 0) continue;
      Row r;
      r.cells = {S(h.name),
                 I(obs::HistogramSnapshot::BucketUpperUs(b)),
                 I(h.snapshot.buckets[b]),
                 I(cumulative),
                 I(h.snapshot.count),
                 I(h.snapshot.sum_us)};
      out->AppendRow(r);
    }
  }
}

std::unique_ptr<Table> Materialize(obs::SystemTableId id, Engine* engine) {
  auto table = std::make_unique<Table>(obs::SystemTableSchema(id));
  switch (id) {
    case obs::SystemTableId::kMetrics:
      FillMetrics(engine, table.get());
      break;
    case obs::SystemTableId::kQueries:
      FillQueries(engine, table.get());
      break;
    case obs::SystemTableId::kActiveQueries:
      FillActiveQueries(engine, table.get());
      break;
    case obs::SystemTableId::kConnections:
      FillConnections(engine, table.get());
      break;
    case obs::SystemTableId::kTables:
      FillTables(engine, table.get());
      break;
    case obs::SystemTableId::kPartitions:
      FillPartitions(engine, table.get());
      break;
    case obs::SystemTableId::kWal:
      FillWal(engine, table.get());
      break;
    case obs::SystemTableId::kMemory:
      FillMemory(engine, table.get());
      break;
    case obs::SystemTableId::kHistograms:
      FillHistograms(engine, table.get());
      break;
  }
  return table;
}

}  // namespace

Status MaterializeSystemScans(LogicalNode* plan, Engine* engine,
                              std::vector<std::unique_ptr<Table>>* owned) {
  if (plan->kind == LogicalNode::Kind::kScan && plan->system_table >= 0) {
    if (plan->system_table >= static_cast<int>(obs::kNumSystemTables)) {
      return Status::Internal("scan carries an unknown system-table id");
    }
    const auto id = static_cast<obs::SystemTableId>(plan->system_table);
    owned->push_back(Materialize(id, engine));
    // The scan now draws from the materialized rows; the single-partition
    // placeholder ptable must be cleared so the executor uses `table`.
    plan->table = owned->back().get();
    plan->ptable = nullptr;
  }
  for (const auto& child : plan->children) {
    PIDX_RETURN_NOT_OK(MaterializeSystemScans(child.get(), engine, owned));
  }
  return Status::OK();
}

}  // namespace patchindex
