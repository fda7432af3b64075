#include "obs/system_tables.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace patchindex::obs {

namespace {

Schema MakeSchema(SystemTableId id) {
  using T = ColumnType;
  switch (id) {
    case SystemTableId::kMetrics:
      return Schema({{"name", T::kString},
                     {"kind", T::kString},
                     {"value", T::kInt64},
                     {"count", T::kInt64},
                     {"sum_us", T::kInt64},
                     {"p50_us", T::kInt64},
                     {"p95_us", T::kInt64},
                     {"p99_us", T::kInt64}});
    case SystemTableId::kQueries: {
      std::vector<Field> fields = {{"query_id", T::kInt64},
                                   {"session_id", T::kInt64},
                                   {"connection_id", T::kInt64},
                                   {"sql", T::kString},
                                   {"status", T::kString},
                                   {"error", T::kString},
                                   {"rows_returned", T::kInt64},
                                   {"rows_affected", T::kInt64},
                                   {"parallel", T::kInt64},
                                   {"csn", T::kInt64},
                                   {"start_us", T::kInt64},
                                   {"total_ms", T::kDouble}};
      for (const PhaseInfo& p : kPhases) {
        fields.push_back({std::string(p.name) + "_ms", T::kDouble});
      }
      fields.push_back({"peak_mem_bytes", T::kInt64});
      return Schema(std::move(fields));
    }
    case SystemTableId::kActiveQueries:
      return Schema({{"query_id", T::kInt64},
                     {"session_id", T::kInt64},
                     {"connection_id", T::kInt64},
                     {"sql", T::kString},
                     {"phase", T::kString},
                     {"elapsed_ms", T::kDouble},
                     {"start_us", T::kInt64},
                     {"mem_bytes", T::kInt64}});
    case SystemTableId::kConnections:
      return Schema({{"connection_id", T::kInt64},
                     {"session_id", T::kInt64},
                     {"remote", T::kString},
                     {"state", T::kString},
                     {"queue_depth", T::kInt64},
                     {"queries", T::kInt64}});
    case SystemTableId::kTables:
      return Schema({{"name", T::kString},
                     {"partitions", T::kInt64},
                     {"rows", T::kInt64},
                     {"pending_inserts", T::kInt64},
                     {"pending_deletes", T::kInt64},
                     {"pending_modifies", T::kInt64},
                     {"indexes", T::kInt64},
                     {"durable", T::kInt64},
                     {"wal_bytes", T::kInt64},
                     {"last_checkpoint_csn", T::kInt64},
                     {"next_csn", T::kInt64},
                     {"live_versions", T::kInt64},
                     {"oldest_pinned_csn", T::kInt64}});
    case SystemTableId::kPartitions:
      return Schema({{"table_name", T::kString},
                     {"partition", T::kInt64},
                     {"rows", T::kInt64},
                     {"pending_inserts", T::kInt64},
                     {"pending_deletes", T::kInt64},
                     {"pending_modifies", T::kInt64},
                     {"indexes", T::kInt64}});
    case SystemTableId::kWal:
      return Schema({{"table_name", T::kString},
                     {"partition", T::kInt64},
                     {"wal_bytes", T::kInt64},
                     {"snapshot_csn", T::kInt64},
                     {"next_csn", T::kInt64},
                     {"broken", T::kInt64}});
    case SystemTableId::kMemory:
      // One row per accounting scope: the engine tracker, each catalog
      // table's resident bytes, each in-flight query, and the server's
      // queue tracker when one is attached.
      return Schema({{"scope", T::kString},
                     {"name", T::kString},
                     {"current_bytes", T::kInt64},
                     {"peak_bytes", T::kInt64},
                     {"limit_bytes", T::kInt64}});
    case SystemTableId::kHistograms:
      // One row per non-empty bucket of every registered histogram, with
      // cumulative counts (Prometheus-style le semantics).
      return Schema({{"name", T::kString},
                     {"le_us", T::kInt64},
                     {"bucket_count", T::kInt64},
                     {"cumulative_count", T::kInt64},
                     {"total_count", T::kInt64},
                     {"sum_us", T::kInt64}});
  }
  return Schema(std::vector<Field>{});
}

const char* SystemTableName(SystemTableId id) {
  switch (id) {
    case SystemTableId::kMetrics:
      return "pi_stats.metrics";
    case SystemTableId::kQueries:
      return "pi_stats.queries";
    case SystemTableId::kActiveQueries:
      return "pi_stats.active_queries";
    case SystemTableId::kConnections:
      return "pi_stats.connections";
    case SystemTableId::kTables:
      return "pi_stats.tables";
    case SystemTableId::kPartitions:
      return "pi_stats.partitions";
    case SystemTableId::kWal:
      return "pi_stats.wal";
    case SystemTableId::kMemory:
      return "pi_stats.memory";
    case SystemTableId::kHistograms:
      return "pi_stats.histograms";
  }
  return "pi_stats.unknown";
}

struct Registry {
  std::array<SystemTableDef, kNumSystemTables> defs;
  std::array<std::unique_ptr<PartitionedTable>, kNumSystemTables> placeholders;
  std::array<Schema, kNumSystemTables> schemas;

  Registry() {
    for (std::size_t i = 0; i < kNumSystemTables; ++i) {
      const auto id = static_cast<SystemTableId>(i);
      schemas[i] = MakeSchema(id);
      placeholders[i] = std::make_unique<PartitionedTable>(schemas[i], 1);
      defs[i] = SystemTableDef{id, SystemTableName(id), placeholders[i].get()};
    }
  }
};

const Registry& GetRegistry() {
  static const Registry* registry = new Registry();
  return *registry;
}

}  // namespace

bool IsSystemSchemaName(const std::string& name) {
  return name.rfind("pi_stats.", 0) == 0;
}

const SystemTableDef* FindSystemTable(const std::string& name) {
  if (!IsSystemSchemaName(name)) return nullptr;
  for (const SystemTableDef& def : GetRegistry().defs) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

const SystemTableDef* SystemTable(SystemTableId id) {
  return &GetRegistry().defs[static_cast<std::size_t>(id)];
}

const Schema& SystemTableSchema(SystemTableId id) {
  return GetRegistry().schemas[static_cast<std::size_t>(id)];
}

}  // namespace patchindex::obs
