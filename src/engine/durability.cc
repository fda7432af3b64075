#include "engine/durability.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/timer.h"
#include "obs/mem_tracker.h"
#include "patchindex/checkpoint.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace patchindex {

namespace {

/// Catalog-log record kinds.
constexpr std::uint8_t kDdlCreateTable = 1;
constexpr std::uint8_t kDdlCreateIndex = 2;

std::uint8_t ColumnTypeTag(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return 1;
    case ColumnType::kDouble:
      return 2;
    case ColumnType::kString:
      return 3;
  }
  return 0;
}

bool TagToColumnType(std::uint8_t tag, ColumnType* out) {
  switch (tag) {
    case 1:
      *out = ColumnType::kInt64;
      return true;
    case 2:
      *out = ColumnType::kDouble;
      return true;
    case 3:
      *out = ColumnType::kString;
      return true;
    default:
      return false;
  }
}

/// Table names become file names; refuse anything that could escape the
/// data directory or collide with our suffix scheme.
bool SafeTableName(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  return name.find('/') == std::string::npos;
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     DurabilityMetrics metrics)
    : options_(std::move(options)), metrics_(metrics) {}

DurabilityManager::~DurabilityManager() {
  catalog_log_.Close();
  for (auto& [name, state] : tables_) {
    for (DurableFile& f : state.wal) f.Close();
  }
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

std::string DurabilityManager::TablePath(const std::string& name,
                                         const char* suffix) const {
  return options_.data_dir + "/" + name + suffix;
}

std::string DurabilityManager::WalPath(const std::string& name,
                                       std::size_t partition) const {
  return TablePath(name, (".p" + std::to_string(partition) + ".wal").c_str());
}

std::string DurabilityManager::SnapshotPath(const std::string& name,
                                            std::size_t partition,
                                            std::uint64_t csn) const {
  return TablePath(name, (".p" + std::to_string(partition) + ".s" +
                          std::to_string(csn) + ".snap")
                             .c_str());
}

std::string DurabilityManager::IndexCheckpointPath(const IndexSpec& spec,
                                                   std::size_t partition,
                                                   std::uint64_t csn) const {
  return TablePath(
      spec.table,
      (".p" + std::to_string(partition) + ".c" + std::to_string(spec.column) +
       ".k" + std::to_string(static_cast<int>(spec.constraint)) + ".s" +
       std::to_string(csn) + ".pidx")
          .c_str());
}

DurabilityManager::TableState* DurabilityManager::FindState(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const DurabilityManager::TableState* DurabilityManager::FindState(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status DurabilityManager::Open() {
  PIDX_RETURN_NOT_OK(EnsureDir(options_.data_dir));
  const std::string lock_path = options_.data_dir + "/LOCK";
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd_ < 0) {
    return Status::Internal("cannot open lock file " + lock_path);
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    return Status::Unavailable("data directory " + options_.data_dir +
                               " is locked by another engine");
  }
  return Status::OK();
}

Status DurabilityManager::AppendCatalogRecord(const std::string& payload) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (!catalog_log_.is_open()) {
    return Status::Internal("catalog log is not open (durability broken)");
  }
  std::string frame;
  AppendFrame(&frame, payload);
  const std::uint64_t pre = catalog_log_.size();
  Status st = catalog_log_.Append("catalog.append", frame.data(), frame.size());
  if (st.ok() && options_.fsync) st = catalog_log_.Fsync("catalog.fsync");
  if (!st.ok()) {
    // Roll the torn frame back so later appends stay decodable; if even
    // that fails the log is unusable — fail stop by closing it.
    if (!catalog_log_.Truncate("catalog.rollback", pre).ok()) {
      catalog_log_.Close();
    }
    return st;
  }
  return Status::OK();
}

Status DurabilityManager::ResetWal(const std::string& name, TableState* state,
                                   std::size_t p) {
  auto file = DurableFile::Create(WalPath(name, p), options_.fault_hook);
  if (!file.ok()) return file.status();
  WalHeader header;
  header.table = name;
  header.partition = static_cast<std::uint32_t>(p);
  header.snapshot_csn = state->snapshot_csn;
  std::string buf(WalMagic());
  AppendFrame(&buf, EncodeWalHeader(header));
  PIDX_RETURN_NOT_OK(
      file.value().Append("wal.header", buf.data(), buf.size()));
  if (options_.fsync) {
    PIDX_RETURN_NOT_OK(file.value().Fsync("wal.header.fsync"));
  }
  state->wal[p] = std::move(file).value();
  return Status::OK();
}

Status DurabilityManager::LogCreateTable(const std::string& name,
                                         const Schema& schema,
                                         std::size_t partitions) {
  if (!SafeTableName(name)) {
    return Status::InvalidArgument(
        "table name '" + name + "' cannot be persisted (used as a file name)");
  }
  std::string payload;
  PutU8(&payload, kDdlCreateTable);
  PutString(&payload, name);
  PutU32(&payload, static_cast<std::uint32_t>(partitions));
  PutU32(&payload, static_cast<std::uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    PutString(&payload, f.name);
    PutU8(&payload, ColumnTypeTag(f.type));
  }
  // WAL files first, the catalog record last: the fsynced catalog append
  // is the commit point of the DDL. A failure (or crash) before it leaves
  // only orphan WAL files that recovery never reads — an errored CREATE
  // TABLE can then never resurrect on restart.
  TableState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TableState& s = tables_[name];
    s.schema = schema;
    s.partitions = partitions;
    s.wal.resize(partitions);
    state = &s;
  }
  Status st;
  for (std::size_t p = 0; p < partitions && st.ok(); ++p) {
    st = ResetWal(name, state, p);
  }
  if (st.ok() && options_.fsync) {
    st = FsyncDir("dir.fsync", options_.data_dir, options_.fault_hook);
  }
  if (st.ok()) st = AppendCatalogRecord(payload);
  if (!st.ok()) {
    for (std::size_t p = 0; p < partitions; ++p) {
      std::remove(WalPath(name, p).c_str());
    }
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(name);
    return st;
  }
  return Status::OK();
}

Status DurabilityManager::LogCreateIndex(const std::string& table,
                                         std::size_t column,
                                         ConstraintKind constraint,
                                         bool ascending) {
  if (FindState(table) == nullptr) return Status::OK();  // untracked table
  std::string payload;
  PutU8(&payload, kDdlCreateIndex);
  PutString(&payload, table);
  PutU64(&payload, column);
  PutU8(&payload, static_cast<std::uint8_t>(constraint));
  PutU8(&payload, ascending ? 1 : 0);
  return AppendCatalogRecord(payload);
}

Status DurabilityManager::LogCommit(const std::string& name,
                                    const PartitionedTable& table,
                                    std::int64_t* commit_csn) {
  TableState* state = FindState(name);
  if (state == nullptr) return Status::OK();  // untracked table
  if (state->broken) {
    return Status::Internal("durable log of table '" + name +
                            "' is broken (an earlier rollback failed); "
                            "restart to recover");
  }

  std::vector<std::size_t> dirty;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    if (!table.partition(p).pdt().empty()) dirty.push_back(p);
  }
  if (dirty.empty()) return Status::OK();

  const std::uint64_t csn = state->next_csn;
  std::vector<std::pair<std::size_t, std::uint64_t>> appended;  // p, pre-size
  std::uint64_t bytes = 0;
  Status st;
  for (const std::size_t p : dirty) {
    const PositionalDelta& pdt = table.partition(p).pdt();
    WalRecord record;
    record.csn = csn;
    record.commit_partitions = static_cast<std::uint32_t>(dirty.size());
    record.inserts = pdt.inserts();
    record.deletes = pdt.deletes();
    for (const auto& [row, cells] : pdt.modifies()) {
      for (const auto& [col, value] : cells) {
        record.modifies.push_back(
            WalCell{row, static_cast<std::uint32_t>(col), value});
      }
    }
    std::string frame;
    AppendFrame(&frame, EncodeWalRecord(record));
    // The serialized record is statement memory until the commit returns;
    // charge it so a statement whose delta serializes over budget aborts
    // here — the existing rollback path truncates what was appended and
    // the caller discards the PDTs, a clean kResourceExhausted abort.
    if (obs::MemoryTracker* mem = obs::CurrentQueryTracker()) {
      std::string scope;
      if (!mem->TryCharge(frame.size(), &scope)) {
        st = Status::ResourceExhausted(
            "memory limit exceeded in operator WAL append: " + scope +
            " budget would be exceeded buffering " +
            std::to_string(frame.size()) + " WAL record bytes");
        break;
      }
    }
    appended.emplace_back(p, state->wal[p].size());
    st = state->wal[p].Append("wal.append", frame.data(), frame.size());
    if (!st.ok()) break;
    bytes += frame.size();
  }
  if (st.ok() && options_.fsync) {
    for (const std::size_t p : dirty) {
      WallTimer fsync_timer;
      st = state->wal[p].Fsync("wal.fsync");
      metrics_.fsync_latency_us->RecordNanos(fsync_timer.ElapsedNanos());
      if (!st.ok()) break;
    }
  }
  if (!st.ok()) {
    // Abort: truncate every partition log back to its pre-commit size so
    // no partial record of this csn survives a later crash.
    for (const auto& [p, pre] : appended) {
      if (!state->wal[p].Truncate("wal.rollback", pre).ok()) {
        state->broken = true;
      }
    }
    return st;
  }
  state->next_csn = csn + 1;
  state->wal_bytes += bytes;
  metrics_.wal_appended_bytes->Add(bytes);
  if (commit_csn != nullptr) *commit_csn = static_cast<std::int64_t>(csn);
  return Status::OK();
}

TableDurability DurabilityManager::InspectTable(const std::string& name) const {
  TableDurability out;
  const TableState* state = FindState(name);
  if (state == nullptr) return out;
  out.tracked = true;
  out.wal_bytes = state->wal_bytes;
  out.snapshot_csn = state->snapshot_csn;
  out.next_csn = state->next_csn;
  out.broken = state->broken;
  for (const DurableFile& f : state->wal) {
    out.partition_wal_bytes.push_back(f.is_open() ? f.size() : 0);
  }
  return out;
}

bool DurabilityManager::ShouldCheckpoint(const std::string& name) const {
  const TableState* state = FindState(name);
  return state != nullptr && !state->broken &&
         options_.checkpoint_wal_bytes > 0 &&
         state->wal_bytes >= options_.checkpoint_wal_bytes;
}

Status DurabilityManager::CheckpointTable(const std::string& name,
                                          const TableVersion& version) {
  TableState* state = FindState(name);
  if (state == nullptr) return Status::OK();  // untracked table
  return CheckpointLocked(name, state, version);
}

Status DurabilityManager::CheckpointLocked(const std::string& name,
                                           TableState* state,
                                           const TableVersion& version) {
  const PartitionedTable& table = *version.snapshot;
  WallTimer checkpoint_timer;
  const FaultHook& hook = options_.fault_hook;
  const std::uint64_t old_csn = state->snapshot_csn;
  const std::uint64_t csn = state->next_csn - 1;

  // 1. Write csn-stamped snapshots and index checkpoints to temporary
  //    names, fsynced, then rename into place. The rename keeps a
  //    same-csn re-checkpoint (recovery's log reset) from tearing files
  //    a live manifest already points at.
  SnapshotManifest manifest;
  manifest.csn = csn;
  std::vector<IndexSpec> specs;  // index files written, for cleanup
  std::vector<std::size_t> spec_partition;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    manifest.partition_rows.push_back(table.partition(p).num_rows());
    const std::string snap = SnapshotPath(name, p, csn);
    PIDX_RETURN_NOT_OK(
        SaveTableSnapshot(table.partition(p), snap + ".tmp", hook));
    PIDX_RETURN_NOT_OK(RenameFile("snap.rename", snap + ".tmp", snap, hook));
    for (const auto& idx : version.indexes) {
      if (&idx->table() != &table.partition(p)) continue;
      IndexSpec spec;
      spec.table = name;
      spec.column = idx->column();
      spec.constraint = idx->constraint();
      spec.ascending = idx->ascending();
      const std::string ckpt = IndexCheckpointPath(spec, p, csn);
      PIDX_RETURN_NOT_OK(
          SavePatchIndexCheckpoint(*idx, ckpt + ".tmp", hook));
      PIDX_RETURN_NOT_OK(
          RenameFile("pidx_ckpt.rename", ckpt + ".tmp", ckpt, hook));
      specs.push_back(std::move(spec));
      spec_partition.push_back(p);
    }
  }

  // 2. The commit point: atomically rename the manifest over the old one
  //    and fsync the directory. Before the rename recovery uses the old
  //    checkpoint; after it, the new one.
  const std::string manifest_path = TablePath(name, ".manifest");
  PIDX_RETURN_NOT_OK(SaveManifest(manifest, manifest_path + ".tmp", hook));
  PIDX_RETURN_NOT_OK(RenameFile("manifest.rename", manifest_path + ".tmp",
                                manifest_path, hook));
  PIDX_RETURN_NOT_OK(FsyncDir("dir.fsync", options_.data_dir, hook));

  // 3. Only now truncate the logs: every record is folded into the
  //    renamed snapshots. A crash between rename and truncation merely
  //    leaves stale records (csn <= manifest csn) that replay skips.
  state->snapshot_csn = csn;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    Status reset = ResetWal(name, state, p);
    if (!reset.ok()) {
      // Fail-stop: the partition's log was truncated by the failed
      // re-create, so further commits would append records behind an
      // invalid header and silently vanish on replay. The snapshot holds
      // everything up to `csn`; a restart recovers and resets the logs.
      state->broken = true;
      return reset;
    }
  }
  state->wal_bytes = 0;

  // 4. Best-effort cleanup of the previous checkpoint's files.
  if (old_csn != csn) {
    for (std::size_t p = 0; p < table.num_partitions(); ++p) {
      std::remove(SnapshotPath(name, p, old_csn).c_str());
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::remove(
          IndexCheckpointPath(specs[i], spec_partition[i], old_csn).c_str());
    }
  }
  metrics_.checkpoint_duration_us->RecordNanos(
      checkpoint_timer.ElapsedNanos());
  return Status::OK();
}

Status DurabilityManager::Recover(Catalog* catalog, ThreadPool* pool) {
  report_ = RecoveryReport{};
  const std::string catalog_path = options_.data_dir + "/catalog.wal";
  std::string data;
  Status read = ReadFileBytes(catalog_path, &data);
  const std::string_view magic = CatalogLogMagic();
  std::vector<IndexSpec> index_specs;
  if (read.code() == StatusCode::kNotFound || data.size() < magic.size()) {
    // Fresh directory, or a crash tore the log's creation before its
    // fsync — before any DDL could have been acknowledged.
    auto file = DurableFile::Create(catalog_path, options_.fault_hook);
    if (!file.ok()) return file.status();
    catalog_log_ = std::move(file).value();
    PIDX_RETURN_NOT_OK(
        catalog_log_.Append("catalog.create", magic.data(), magic.size()));
    if (options_.fsync) {
      PIDX_RETURN_NOT_OK(catalog_log_.Fsync("catalog.fsync"));
      PIDX_RETURN_NOT_OK(
          FsyncDir("dir.fsync", options_.data_dir, options_.fault_hook));
    }
    return Status::OK();
  }
  if (!read.ok()) return read;
  if (std::string_view(data).substr(0, magic.size()) != magic) {
    return Status::Internal("catalog log " + catalog_path +
                            " is corrupted (bad magic); refusing to guess");
  }

  // Replay the DDL records (torn tail rule: stop at the first invalid
  // frame and truncate it away).
  std::size_t offset = magic.size();
  std::size_t valid_bytes = offset;
  std::string_view payload;
  while (NextFrame(data, &offset, &payload)) {
    ByteReader r(payload);
    const std::uint8_t kind = r.GetU8();
    if (kind == kDdlCreateTable) {
      const std::string name = r.GetString();
      const std::uint32_t partitions = r.GetU32();
      const std::uint32_t n_cols = r.GetU32();
      if (!r.ok() || partitions == 0 || partitions > Catalog::kMaxPartitions ||
          n_cols > r.remaining()) {
        break;
      }
      std::vector<Field> fields;
      for (std::uint32_t c = 0; c < n_cols && r.ok(); ++c) {
        Field f;
        f.name = r.GetString();
        if (!TagToColumnType(r.GetU8(), &f.type)) break;
        fields.push_back(std::move(f));
      }
      if (!r.done() || fields.size() != n_cols || !SafeTableName(name) ||
          tables_.count(name) != 0) {
        break;
      }
      TableState& s = tables_[name];
      s.schema = Schema(std::move(fields));
      s.partitions = partitions;
      s.wal.resize(partitions);
    } else if (kind == kDdlCreateIndex) {
      IndexSpec spec;
      spec.table = r.GetString();
      spec.column = static_cast<std::size_t>(r.GetU64());
      const std::uint8_t constraint = r.GetU8();
      spec.ascending = r.GetU8() != 0;
      if (!r.done() || constraint > 2 || tables_.count(spec.table) == 0) break;
      spec.constraint = static_cast<ConstraintKind>(constraint);
      const bool duplicate =
          std::any_of(index_specs.begin(), index_specs.end(),
                      [&](const IndexSpec& s) {
                        return s.table == spec.table &&
                               s.column == spec.column &&
                               s.constraint == spec.constraint;
                      });
      if (!duplicate) index_specs.push_back(std::move(spec));
    } else {
      break;  // unknown kind: stop at the torn/foreign tail
    }
    valid_bytes = offset;
  }

  // Reopen the log for appending, truncating any torn tail.
  auto file = DurableFile::OpenForAppend(catalog_path, options_.fault_hook);
  if (!file.ok()) return file.status();
  catalog_log_ = std::move(file).value();
  if (valid_bytes != data.size()) {
    PIDX_RETURN_NOT_OK(catalog_log_.Truncate("catalog.truncate", valid_bytes));
    if (options_.fsync) {
      PIDX_RETURN_NOT_OK(catalog_log_.Fsync("catalog.fsync"));
    }
  }

  for (auto& [name, state] : tables_) {
    std::vector<IndexSpec> table_indexes;
    for (const IndexSpec& spec : index_specs) {
      if (spec.table == name) table_indexes.push_back(spec);
    }
    PIDX_RETURN_NOT_OK(
        RecoverTable(name, &state, table_indexes, catalog, pool));
  }
  report_.tables = tables_.size();
  return Status::OK();
}

Status DurabilityManager::RecoverTable(const std::string& name,
                                       TableState* state,
                                       const std::vector<IndexSpec>& indexes,
                                       Catalog* catalog, ThreadPool* pool) {
  // 1. Load the latest checkpoint, if one ever completed (the manifest's
  //    atomic rename is the commit point).
  bool have_manifest = false;
  SnapshotManifest manifest;
  {
    Result<SnapshotManifest> loaded = LoadManifest(TablePath(name, ".manifest"));
    if (loaded.ok()) {
      manifest = std::move(loaded).value();
      have_manifest = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  std::vector<std::unique_ptr<Table>> parts;
  if (have_manifest) {
    if (manifest.partition_rows.size() != state->partitions) {
      return Status::Internal("manifest of table '" + name +
                              "' disagrees with the catalog log's partition "
                              "count");
    }
    for (std::size_t p = 0; p < state->partitions; ++p) {
      auto loaded =
          LoadTableSnapshot(SnapshotPath(name, p, manifest.csn), state->schema);
      if (!loaded.ok()) return loaded.status();
      if (loaded.value()->num_rows() != manifest.partition_rows[p]) {
        return Status::Internal("snapshot row count of table '" + name +
                                "' partition " + std::to_string(p) +
                                " disagrees with its manifest");
      }
      parts.push_back(std::move(loaded).value());
    }
  } else {
    for (std::size_t p = 0; p < state->partitions; ++p) {
      parts.push_back(std::make_unique<Table>(state->schema));
    }
  }
  const std::uint64_t base_csn = have_manifest ? manifest.csn : 0;
  state->snapshot_csn = base_csn;

  PIDX_RETURN_NOT_OK(
      catalog
          ->AddPartitionedTable(name, std::make_unique<PartitionedTable>(
                                          state->schema, std::move(parts)))
          .status());
  // Recovery rebuilds the head through its TableRef, like the commit
  // protocol. It is single-threaded (the engine is not serving yet), so
  // no table lock is needed.
  const Catalog::TableRef ref = catalog->Ref(name);
  PartitionedTable* table = ref.ptable;

  // 2. Restore index checkpoints stamped with the manifest's csn, so
  //    replay maintains them incrementally (the §3.4 alternative to
  //    post-restart rediscovery). Anything unrestorable is rebuilt by
  //    discovery after replay.
  std::vector<std::pair<const IndexSpec*, std::size_t>> rebuild;
  for (const IndexSpec& spec : indexes) {
    for (std::size_t p = 0; p < state->partitions; ++p) {
      bool restored = false;
      if (have_manifest) {
        auto loaded = LoadPatchIndexCheckpoint(
            IndexCheckpointPath(spec, p, base_csn), table->partition(p));
        if (loaded.ok()) {
          catalog->manager().Register(std::move(loaded).value());
          ++report_.indexes_restored;
          restored = true;
        }
      }
      if (!restored) rebuild.emplace_back(&spec, p);
    }
  }

  // 3. Read the partition logs and replay their tails in csn order.
  bool pristine = true;
  std::map<std::uint64_t, std::vector<std::pair<std::size_t, WalRecord>>>
      by_csn;
  for (std::size_t p = 0; p < state->partitions; ++p) {
    std::string data;
    Status read = ReadFileBytes(WalPath(name, p), &data);
    if (read.code() == StatusCode::kNotFound) {
      pristine = false;  // creation crashed between catalog log and WAL
      continue;
    }
    if (!read.ok()) return read;
    WalContents contents = ParseWalFile(data);
    if (!contents.header_valid || contents.header.table != name ||
        contents.header.partition != p) {
      pristine = false;  // torn creation; nothing acknowledged is in here
      continue;
    }
    if (!contents.clean || contents.header.snapshot_csn != base_csn ||
        !contents.records.empty()) {
      pristine = false;
    }
    for (WalRecord& record : contents.records) {
      if (record.csn <= base_csn) continue;  // pre-truncation leftovers
      by_csn[record.csn].emplace_back(p, std::move(record));
    }
  }

  std::uint64_t last_csn = base_csn;
  for (auto it = by_csn.begin(); it != by_csn.end(); ++it) {
    const std::uint64_t csn = it->first;
    auto& records = it->second;
    const bool contiguous = csn == last_csn + 1;
    const bool complete =
        !records.empty() &&
        std::all_of(records.begin(), records.end(), [&](const auto& pr) {
          return pr.second.commit_partitions == records.size();
        });
    if (!contiguous || !complete) {
      // A crash mid-LogCommit: the trailing commit is missing partition
      // records (or an earlier torn tail swallowed a predecessor). Drop
      // it and everything after — none of it was ever acknowledged.
      report_.commits_dropped +=
          static_cast<std::uint64_t>(std::distance(it, by_csn.end()));
      break;
    }
    for (auto& [p, record] : records) {
      Table& part = table->partition(p);
      for (Row& row : record.inserts) part.BufferInsert(std::move(row));
      for (const RowId row : record.deletes) {
        PIDX_RETURN_NOT_OK(part.BufferDelete(row));
      }
      for (WalCell& cell : record.modifies) {
        PIDX_RETURN_NOT_OK(
            part.BufferModify(cell.row, cell.column, std::move(cell.value)));
      }
      ++report_.records_replayed;
    }
    Status commit = catalog->manager().CommitUpdateQuery(*table, pool);
    // kConstraintViolation means an index broke and was dropped (the
    // all-or-nothing index contract); the data committed and the rebuild
    // pass below recreates the index from the final state.
    if (!commit.ok() && commit.code() != StatusCode::kConstraintViolation) {
      return commit;
    }
    last_csn = csn;
  }
  state->next_csn = last_csn + 1;

  // 4. Rebuild whatever could not be restored from a checkpoint, by
  //    discovery over the fully replayed table.
  for (const auto& [spec, p] : rebuild) {
    PatchIndexOptions options;
    options.ascending = spec->ascending;
    catalog->manager().CreateIndex(table->partition(p), spec->column,
                                   spec->constraint, options);
    ++report_.indexes_rebuilt;
  }

  // 5. Republish the table's MVCC version: AddPartitionedTable published
  //    the pre-replay state, and replay/index rebuild mutated the head
  //    since; reindex snapshots the restored/rebuilt indexes into the
  //    version.
  catalog->PublishVersion(ref, last_csn, /*reindex=*/true);

  // 6. Reset the durable state unless it is already pristine: one
  //    checkpoint of the version just published folds the replayed tail
  //    into fresh snapshots and truncates the logs (also discarding any
  //    dropped partial commit, so its csn can be reassigned).
  if (pristine) {
    for (std::size_t p = 0; p < state->partitions; ++p) {
      auto file =
          DurableFile::OpenForAppend(WalPath(name, p), options_.fault_hook);
      if (!file.ok()) return file.status();
      state->wal[p] = std::move(file).value();
    }
    return Status::OK();
  }
  EpochGc::Guard guard(EpochGc::Global());
  return CheckpointLocked(name, state, *catalog->PinnedVersion(ref));
}

}  // namespace patchindex
