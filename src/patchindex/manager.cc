#include "patchindex/manager.h"

#include <algorithm>
#include <utility>

namespace patchindex {

namespace {

/// One delta kind per update query (paper §5, Table 1). Validated before
/// any index state is touched so a rejected query leaves everything
/// intact.
Status ValidateSingleDeltaKind(const PositionalDelta& pdt) {
  const int kinds = (pdt.inserts().empty() ? 0 : 1) +
                    (pdt.deletes().empty() ? 0 : 1) +
                    (pdt.modifies().empty() ? 0 : 1);
  if (kinds > 1) {
    return Status::InvalidArgument(
        "update query must contain exactly one delta kind (one SQL "
        "statement inserts, modifies or deletes)");
  }
  return Status::OK();
}

}  // namespace

PatchIndex* PatchIndexManager::CreateIndex(const Table& table,
                                           std::size_t column,
                                           ConstraintKind constraint,
                                           PatchIndexOptions options) {
  // Discovery runs outside the registry lock; only the push_back races
  // with concurrent IndexesOn iterations.
  auto index = PatchIndex::Create(table, column, constraint, options);
  PatchIndex* handle = index.get();
  std::lock_guard<std::mutex> lock(mu_);
  indexes_.push_back(std::move(index));
  return handle;
}

PatchIndex* PatchIndexManager::Register(std::unique_ptr<PatchIndex> index) {
  PatchIndex* handle = index.get();
  std::lock_guard<std::mutex> lock(mu_);
  indexes_.push_back(std::move(index));
  return handle;
}

std::vector<PatchIndex*> PatchIndexManager::CreatePartitionedIndex(
    const PartitionedTable& table, std::size_t column,
    ConstraintKind constraint, PatchIndexOptions options, ThreadPool* pool) {
  // Discovery + creation are independent per partition: run them on the
  // pool and register the results in partition order afterwards.
  std::vector<std::unique_ptr<PatchIndex>> created(table.num_partitions());
  const auto create = [&](std::size_t p) {
    created[p] =
        PatchIndex::Create(table.partition(p), column, constraint, options);
  };
  if (pool != nullptr) {
    pool->ParallelFor(created.size(), create);
  } else {
    for (std::size_t p = 0; p < created.size(); ++p) create(p);
  }
  std::vector<PatchIndex*> handles;
  handles.reserve(created.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& idx : created) {
    handles.push_back(idx.get());
    indexes_.push_back(std::move(idx));
  }
  return handles;
}

std::vector<PatchIndex*> PatchIndexManager::IndexesOn(
    const Table& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PatchIndex*> out;
  for (const auto& idx : indexes_) {
    if (&idx->table() == &table) out.push_back(idx.get());
  }
  return out;
}

std::vector<const PatchIndex*> PatchIndexManager::FindIndexesOn(
    const Table& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const PatchIndex*> out;
  for (const auto& idx : indexes_) {
    if (&idx->table() == &table) out.push_back(idx.get());
  }
  return out;
}

std::vector<std::shared_ptr<const PatchIndex>> PatchIndexManager::SharedIndexesOn(
    const Table& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const PatchIndex>> out;
  for (const auto& idx : indexes_) {
    if (&idx->table() == &table) out.push_back(idx);
  }
  return out;
}

std::vector<PatchIndex*> PatchIndexManager::IndexesOn(
    const PartitionedTable& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PatchIndex*> out;
  for (const auto& idx : indexes_) {
    for (std::size_t p = 0; p < table.num_partitions(); ++p) {
      if (&idx->table() == &table.partition(p)) {
        out.push_back(idx.get());
        break;
      }
    }
  }
  return out;
}

std::size_t PatchIndexManager::DropIndexesOn(const Table& table) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = indexes_.size();
  indexes_.erase(std::remove_if(indexes_.begin(), indexes_.end(),
                                [&table](const auto& idx) {
                                  return &idx->table() == &table;
                                }),
                 indexes_.end());
  return before - indexes_.size();
}

std::size_t PatchIndexManager::DropIndexesOn(const PartitionedTable& table) {
  std::size_t dropped = 0;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    dropped += DropIndexesOn(table.partition(p));
  }
  return dropped;
}

bool PatchIndexManager::DropIndex(PatchIndex* index) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (it->get() == index) {
      indexes_.erase(it);
      return true;
    }
  }
  return false;
}

Status PatchIndexManager::CommitValidated(Table& table) {
  const std::vector<PatchIndex*> affected = IndexesOn(table);
  // Phase one: constraint-specific handling against the pre-checkpoint
  // table + PDT. An index that fails here is broken (its patch state may
  // already reflect the delta) and sits out the rest of the protocol.
  std::vector<PatchIndex*> broken;
  Status first_error = Status::OK();
  for (PatchIndex* idx : affected) {
    Status st = idx->HandleUpdateQuery();
    if (!st.ok()) {
      broken.push_back(idx);
      if (first_error.ok()) first_error = st;
    }
  }
  // The data change itself always commits: surviving indexes ran their
  // handlers against exactly this delta, so the checkpoint is what keeps
  // them consistent.
  table.Checkpoint();
  // Phase two: post-checkpoint maintenance on the survivors. A failure
  // here used to return early, leaving every later index silently stale
  // against the already-checkpointed table — instead, finish the loop and
  // collect the failures.
  for (PatchIndex* idx : affected) {
    if (std::find(broken.begin(), broken.end(), idx) != broken.end()) {
      continue;
    }
    Status st = idx->AfterCheckpoint();
    if (!st.ok()) {
      broken.push_back(idx);
      if (first_error.ok()) first_error = st;
    }
  }
  if (broken.empty()) return Status::OK();
  // All-or-nothing per index: a broken index is removed entirely so no
  // stale index remains registered. The status surfaces what happened —
  // the table update is committed, the named indexes are gone.
  for (PatchIndex* idx : broken) DropIndex(idx);
  return Status::ConstraintViolation(
      "update committed, but index maintenance failed; dropped " +
      std::to_string(broken.size()) + " patch index(es): " +
      first_error.message());
}

Status PatchIndexManager::CommitUpdateQuery(Table& table) {
  PIDX_RETURN_NOT_OK(ValidateSingleDeltaKind(table.pdt()));
  return CommitValidated(table);
}

Status PatchIndexManager::CommitUpdateQuery(PartitionedTable& table,
                                            ThreadPool* pool) {
  // Validate every dirty partition before committing any: a mixed-kind
  // PDT in one partition must not leave sibling partitions committed.
  std::vector<std::size_t> dirty;
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    if (table.partition(p).pdt().empty()) continue;
    PIDX_RETURN_NOT_OK(ValidateSingleDeltaKind(table.partition(p).pdt()));
    dirty.push_back(p);
  }
  if (dirty.empty()) return Status::OK();

  std::vector<Status> results(dirty.size(), Status::OK());
  // Partition-local commits run in parallel on `pool`: indexes are per
  // partition, so the protocols never touch shared index state; the
  // registry's own lock covers IndexesOn/DropIndex.
  const auto commit = [&](std::size_t i) {
    results[i] = CommitValidated(table.partition(dirty[i]));
  };
  if (pool != nullptr) {
    pool->ParallelFor(dirty.size(), commit);
  } else {
    for (std::size_t i = 0; i < dirty.size(); ++i) commit(i);
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (!results[i].ok()) {
      return Status::ConstraintViolation(
          "partition " + std::to_string(dirty[i]) + ": " +
          results[i].message());
    }
  }
  return Status::OK();
}

}  // namespace patchindex
