#ifndef PATCHINDEX_STORAGE_TABLE_H_
#define PATCHINDEX_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/column.h"
#include "storage/pdt.h"
#include "storage/value.h"

namespace patchindex {

struct Field {
  std::string name;
  ColumnType type;
};

/// Ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  std::size_t num_fields() const { return fields_.size(); }
  const Field& field(std::size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the column named `name`; negative if absent.
  int ColumnIndex(const std::string& name) const;

 private:
  std::vector<Field> fields_;
};

/// An in-memory columnar table (one partition in the paper's terms; data
/// partitioning is transparent to PatchIndexes, a separate index is created
/// per partition — see PartitionedTable below). Updates are buffered in a
/// positional delta (PDT) and folded into the base columns by Checkpoint().
///
/// Copying a table is cheap: its columns share their blocks with the
/// copy, and each column copies a block before writing it while another
/// table still shares it (see Column). An MVCC snapshot (CloneShared) is
/// such a copy, so a published snapshot never observes base-column
/// mutation, and a commit copies only the blocks it touches. All mutation
/// still requires the caller to hold the table's writer lock (or
/// exclusive ownership) — copy-on-write protects snapshots, it does not
/// make concurrent writers safe.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }

  /// Base rows, excluding pending PDT deltas.
  std::uint64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  Column& column(std::size_t i) { return columns_[i]; }
  const Column& column(std::size_t i) const { return columns_[i]; }
  const Column* ColumnByName(const std::string& name) const;

  /// Appends a row directly to the base columns (bulk loading path).
  void AppendRow(const Row& row);

  /// Update-query API: buffers deltas in the PDT. `row` positions refer to
  /// the current base table.
  void BufferInsert(Row row);
  Status BufferDelete(RowId row);
  Status BufferModify(RowId row, std::size_t col, Value v);

  const PositionalDelta& pdt() const { return pdt_; }

  /// Discards all pending PDT deltas without applying them — the commit
  /// abort path (a WAL append that failed before publication).
  void DiscardPdt() {
    pdt_.Clear();
    ++mutation_seq_;
  }

  /// Merges all pending deltas into the base columns: modifies are applied
  /// in place, deleted rows compacted away (shifting subsequent rowIDs
  /// down, matching the sharded bitmap's delete semantics), inserts
  /// appended. Clears the PDT.
  void Checkpoint();

  /// Value of cell (row, col) as a scan would see it (deltas applied;
  /// rows >= num_rows() address pending inserts). Test/debug helper.
  Value VisibleCell(RowId row, std::size_t col) const;

  std::uint64_t MemoryUsageBytes() const;

  /// Monotonic counter bumped by every mutation through the table (row
  /// appends, PDT buffering, Checkpoint, DiscardPdt). A published MVCC
  /// version records the value it was taken at, and the next publication
  /// reuses every partition whose value has not moved. Read under the
  /// table's writer lock, like every mutation.
  std::uint64_t mutation_seq() const { return mutation_seq_; }

  /// Immutable snapshot for MVCC publication: a copy sharing every column
  /// block with this table (O(#blocks) pointer copies). Only a committed
  /// state is published, so the PDT must be empty (checked). Caller must
  /// hold the table's writer lock.
  std::unique_ptr<Table> CloneShared() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  PositionalDelta pdt_;
  std::uint64_t mutation_seq_ = 0;
};

/// A horizontally partitioned table: constraint discovery, index creation
/// and query processing are performed partition-locally (paper §3.2).
///
/// Rows are addressed globally by concatenating the partitions in order:
/// partition 0 holds global rows [0, n0), partition 1 holds [n0, n0+n1),
/// and so on (partition_base / ResolveRow map between the two views).
/// Scans over a partitioned table emit these global rowIDs (via
/// ScanOptions::row_id_offset), so DML deltas computed from a scan route
/// back to the owning partition.
class PartitionedTable {
 public:
  PartitionedTable(Schema schema, std::size_t num_partitions);

  /// Adopts already-populated partitions (bulk-load / catalog AddTable
  /// path). Every partition must share `schema`'s layout.
  PartitionedTable(Schema schema, std::vector<std::unique_ptr<Table>> parts);

  /// Assembles a table view over existing partition handles — the MVCC
  /// publication path, where a new version reuses the snapshots of
  /// partitions an update left untouched.
  PartitionedTable(Schema schema, std::vector<std::shared_ptr<Table>> parts);

  std::size_t num_partitions() const { return partitions_.size(); }
  Table& partition(std::size_t i) { return *partitions_[i]; }
  const Table& partition(std::size_t i) const { return *partitions_[i]; }
  /// Shared handle to partition `i` (MVCC version assembly).
  const std::shared_ptr<Table>& partition_ptr(std::size_t i) const {
    return partitions_[i];
  }
  const Schema& schema() const { return schema_; }

  /// Base rows across all partitions (excluding pending PDT deltas).
  std::uint64_t num_rows() const;

  /// Global rowID of partition `i`'s first base row (sum of the base row
  /// counts of the partitions before it).
  std::uint64_t partition_base(std::size_t i) const;

  /// Maps a global base rowID to its owning partition and the local row
  /// within it. The rowID must be < num_rows().
  struct RowLocation {
    std::size_t partition;
    RowId local_row;
  };
  RowLocation ResolveRow(RowId global_row) const;

  /// Appends a row to the least-loaded partition (fewest base rows, ties
  /// to the lowest index — round-robin when loading from empty). Bulk
  /// loading path, mirroring Table::AppendRow.
  void AppendRow(const Row& row);

  /// Buffers an insert in the least-loaded partition's PDT (fewest base +
  /// pending-insert rows), the update-query routing policy.
  void BufferInsert(Row row);

  /// True when no partition has pending PDT deltas.
  bool pdt_empty() const;

  /// Discards every partition's pending PDT deltas (commit abort).
  void DiscardPdt() {
    for (auto& part : partitions_) part->DiscardPdt();
  }

  std::uint64_t MemoryUsageBytes() const;

 private:
  std::size_t LeastLoadedPartition(bool count_pending_inserts) const;

  Schema schema_;
  std::vector<std::shared_ptr<Table>> partitions_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_TABLE_H_
