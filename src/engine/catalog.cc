#include "engine/catalog.h"

#include <atomic>
#include <chrono>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace patchindex {

namespace {

/// Hands heap pages freed by reclaimed versions back to the OS, at most
/// once a second. Every commit copies the columns it changes
/// (copy-on-write), so a busy writer frees a stream of column-sized
/// buffers on whichever threads reclaim them. glibc keeps such pages in
/// its per-thread arenas, and resident memory would otherwise grow with
/// the commit rate rather than with the data.
void ReleaseFreedPages() {
#if defined(__GLIBC__)
  static std::atomic<std::int64_t> last_ms{0};
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  std::int64_t prev = last_ms.load(std::memory_order_relaxed);
  if (now - prev < 1000 ||
      !last_ms.compare_exchange_strong(prev, now, std::memory_order_relaxed)) {
    return;
  }
  malloc_trim(0);
#endif
}

}  // namespace

Result<const Table*> Catalog::CreateTable(const std::string& name,
                                          Schema schema) {
  Result<const PartitionedTable*> created =
      CreatePartitionedTable(name, std::move(schema), 1);
  if (!created.ok()) return created.status();
  return &created.value()->partition(0);
}

Result<const PartitionedTable*> Catalog::CreatePartitionedTable(
    const std::string& name, Schema schema, std::size_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("a table needs at least one partition");
  }
  if (num_partitions > kMaxPartitions) {
    // Partitions are eagerly allocated; an unchecked count from SQL
    // (`PARTITIONS 4000000000`) must fail as a status, not as bad_alloc.
    return Status::InvalidArgument(
        "partition count " + std::to_string(num_partitions) +
        " exceeds the maximum of " + std::to_string(kMaxPartitions));
  }
  return AddPartitionedTable(
      name, std::make_unique<PartitionedTable>(std::move(schema),
                                               num_partitions));
}

Result<const Table*> Catalog::AddTable(const std::string& name,
                                       std::unique_ptr<Table> table) {
  Schema schema = table->schema();
  std::vector<std::unique_ptr<Table>> parts;
  parts.push_back(std::move(table));
  Result<const PartitionedTable*> added = AddPartitionedTable(
      name, std::make_unique<PartitionedTable>(std::move(schema),
                                               std::move(parts)));
  if (!added.ok()) return added.status();
  return &added.value()->partition(0);
}

Result<const PartitionedTable*> Catalog::AddPartitionedTable(
    const std::string& name, std::unique_ptr<PartitionedTable> table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto entry = std::make_shared<Entry>();
  entry->table = std::move(table);
  const PartitionedTable* handle = entry->table.get();
  // Publish the first version before the entry becomes visible, so every
  // reader that can resolve the table finds a pinnable version. No lock
  // needed: nothing else can reach the entry yet.
  PublishLocked(*entry, /*csn=*/0, /*reindex=*/true);
  tables_.emplace(name, std::move(entry));
  return handle;
}

const Table* Catalog::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end() || it->second->table->num_partitions() != 1) {
    return nullptr;
  }
  return &it->second->table->partition(0);
}

const PartitionedTable* Catalog::FindPartitionedTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second->table.get();
}

Status Catalog::DropTable(const std::string& name) {
  std::shared_ptr<Entry> removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table '" + name + "' does not exist");
    }
    removed = std::move(it->second);
    tables_.erase(it);
  }
  // New lookups now fail; sessions holding a TableRef keep the entry
  // alive. Dropping the indexes under the exclusive lock serializes
  // against readers that found no version and wait on the shared lock
  // (they consult the live indexes); the table itself is freed when the
  // last TableRef releases. Pinned MVCC readers are unaffected: the retired
  // version (and the index snapshots it owns) stays alive until their
  // epoch guards release.
  {
    std::unique_lock<std::shared_mutex> exclusive(removed->lock);
    manager_.DropIndexesOn(*removed->table);
    const TableVersion* old =
        removed->version.exchange(nullptr, std::memory_order_seq_cst);
    RetireVersion(removed->tracker, old);
  }
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

Catalog::TableRef Catalog::MakeRef(const std::shared_ptr<Entry>& entry) const {
  TableRef ref;
  ref.ptable = entry->table.get();
  ref.table = entry->table->num_partitions() == 1
                  ? &entry->table->partition(0)
                  : nullptr;
  ref.lock = &entry->lock;
  ref.owner = entry;
  return ref;
}

Catalog::TableRef Catalog::Ref(const Table& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : tables_) {
    for (std::size_t p = 0; p < entry->table->num_partitions(); ++p) {
      if (&entry->table->partition(p) == &table) return MakeRef(entry);
    }
  }
  return {};
}

Catalog::TableRef Catalog::Ref(const PartitionedTable& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : tables_) {
    if (entry->table.get() == &table) return MakeRef(entry);
  }
  return {};
}

Catalog::TableRef Catalog::Ref(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return {};
  return MakeRef(it->second);
}

Catalog::Entry& Catalog::EntryOf(const TableRef& ref) {
  return *std::static_pointer_cast<Entry>(ref.owner);
}

void Catalog::PublishVersion(const TableRef& ref, std::uint64_t csn,
                             bool reindex) {
  PublishLocked(EntryOf(ref), csn, reindex);
}

void Catalog::PublishLocked(Entry& entry, std::uint64_t csn, bool reindex) {
  const PartitionedTable& head = *entry.table;
  // Stable under the exclusive lock: only publication (under the same
  // lock) replaces the pointer.
  const TableVersion* prev = entry.version.load(std::memory_order_acquire);
  auto next = std::make_unique<TableVersion>();
  next->version_id = entry.next_version_id++;
  next->csn = csn != 0 ? csn : next->version_id;
  next->partition_seqs.resize(head.num_partitions());
  std::vector<std::shared_ptr<Table>> parts(head.num_partitions());
  for (std::size_t p = 0; p < head.num_partitions(); ++p) {
    const std::uint64_t seq = head.partition(p).mutation_seq();
    next->partition_seqs[p] = seq;
    const bool reuse = !reindex && prev != nullptr &&
                       p < prev->partition_seqs.size() &&
                       prev->partition_seqs[p] == seq;
    if (reuse) {
      // Untouched partition: the previous snapshot (and the index clones
      // bound to it) is still exactly the committed state — carry both
      // over so a single-row UPDATE only ever clones one partition.
      parts[p] = prev->snapshot->partition_ptr(p);
      for (const auto& idx : prev->indexes) {
        if (&idx->table() == parts[p].get()) next->indexes.push_back(idx);
      }
    } else {
      parts[p] = std::shared_ptr<Table>(head.partition(p).CloneShared());
      for (const auto& idx : manager_.SharedIndexesOn(head.partition(p))) {
        next->indexes.emplace_back(idx->CloneForSnapshot(*parts[p]));
      }
    }
  }
  next->snapshot =
      std::make_shared<PartitionedTable>(head.schema(), std::move(parts));
  {
    std::lock_guard<std::mutex> lock(entry.tracker->mu);
    entry.tracker->live_csns.insert(next->csn);
  }
  const TableVersion* old = entry.version.exchange(
      next.release(), std::memory_order_seq_cst);
  RetireVersion(entry.tracker, old);
}

void Catalog::RetireVersion(std::shared_ptr<VersionTracker> tracker,
                            const TableVersion* version) {
  if (version == nullptr) return;
  // The deleter captures only what it needs — it may run long after the
  // catalog (or the whole engine) is destroyed.
  EpochGc::Global().Retire([tracker = std::move(tracker), version] {
    {
      std::lock_guard<std::mutex> lock(tracker->mu);
      tracker->live_csns.erase(tracker->live_csns.find(version->csn));
    }
    delete version;
    ReleaseFreedPages();
  });
}

const TableVersion* Catalog::PinnedVersion(const TableRef& ref) const {
  return EntryOf(ref).version.load(std::memory_order_seq_cst);
}

Catalog::VersionStats Catalog::VersionStatsFor(const TableRef& ref) const {
  Entry& entry = EntryOf(ref);
  VersionStats stats;
  {
    std::lock_guard<std::mutex> lock(entry.tracker->mu);
    stats.live = static_cast<std::int64_t>(entry.tracker->live_csns.size());
    if (!entry.tracker->live_csns.empty()) {
      stats.oldest_live_csn = *entry.tracker->live_csns.begin();
    }
  }
  {
    // Pin while reading the current version's CSN.
    EpochGc::Guard guard(EpochGc::Global());
    const TableVersion* current =
        entry.version.load(std::memory_order_seq_cst);
    if (current != nullptr) stats.current_csn = current->csn;
  }
  return stats;
}

std::int64_t Catalog::TotalLiveVersions() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(tables_.size());
    for (const auto& [name, entry] : tables_) entries.push_back(entry);
  }
  std::int64_t total = 0;
  for (const auto& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->tracker->mu);
    total += static_cast<std::int64_t>(entry->tracker->live_csns.size());
  }
  return total;
}

Catalog::~Catalog() {
  // Retire every still-published version so its memory is reclaimed once
  // outstanding pins drain; the deleters are self-contained and safe to
  // run after this catalog is gone.
  for (auto& [name, entry] : tables_) {
    const TableVersion* old =
        entry->version.exchange(nullptr, std::memory_order_seq_cst);
    RetireVersion(entry->tracker, old);
  }
  EpochGc::Global().TryReclaim();
}

}  // namespace patchindex
