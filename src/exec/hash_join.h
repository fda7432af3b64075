#ifndef PATCHINDEX_EXEC_HASH_JOIN_H_
#define PATCHINDEX_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace patchindex {

/// Hash table over the materialized build side of an INT64 equi join.
/// The morsel-driven executor builds partitions of it from many workers
/// and probes them concurrently; HashJoinOperator builds one.
/// Thread-safety: AddRow is single-writer (one partition is built by one
/// task); once built, any number of threads may ForEachMatch concurrently
/// (probes are read-only).
///
/// Keys live in two structures: a unique map for rows whose key is
/// promised to appear at most once (NUC non-exception rows — probing them
/// is a single lookup with no duplicate chaining), and a chained multimap
/// for everything else (NUC patches, unindexed builds). A violated
/// uniqueness promise is detected on insert and both occurrences are
/// demoted to the chained path, so probe results stay exact no matter
/// what the caller promises.
class JoinHashTable {
 public:
  JoinHashTable() = default;

  /// Clears the table and fixes the build-side column layout.
  void Reset(const std::vector<ColumnType>& build_types);

  /// Pre-sizes the hash structures for `n` build rows (avoids rehashing
  /// during bulk AddRow loops).
  void Reserve(std::size_t n);

  /// Appends build row `row` of `src` (which must use the build layout)
  /// under `key`. `unique_hint` promises the key appears at most once
  /// among all hinted rows of this table; see the class comment for how
  /// violations are handled.
  void AddRow(const Batch& src, std::size_t row, std::int64_t key,
              bool unique_hint = false);

  /// Invokes fn(build_row_index) for every build row holding `key`.
  template <typename Fn>
  void ForEachMatch(std::int64_t key, Fn&& fn) const {
    if (!unique_.empty()) {
      auto it = unique_.find(key);
      if (it != unique_.end()) fn(it->second);
    }
    if (!chained_.empty()) {
      auto [first, last] = chained_.equal_range(key);
      for (auto it = first; it != last; ++it) fn(it->second);
    }
  }

  /// The materialized build rows, indexable by the values ForEachMatch
  /// produces.
  const Batch& rows() const { return rows_; }
  std::size_t num_rows() const { return rows_.num_rows(); }

  /// Content-based memory estimate: materialized build rows plus a fixed
  /// per-entry cost for the hash structures (node + key + value + bucket
  /// slot). A function of row count and content only, so partitioned
  /// builds sum to the same total as a monolithic one.
  std::uint64_t ApproxBytes() const {
    return patchindex::ApproxBytes(rows_) +
           static_cast<std::uint64_t>(unique_.size() + chained_.size()) *
               kEntryBytes;
  }

  /// Estimated heap cost per hash-table entry.
  static constexpr std::uint64_t kEntryBytes = 48;

 private:
  Batch rows_;
  std::unordered_map<std::int64_t, std::size_t> unique_;
  std::unordered_multimap<std::int64_t, std::size_t> chained_;
};

/// Partition of `key` among `mask + 1` (a power of two) partitions.
/// Multiplicative hashing decorrelates the partition from the low key
/// bits, which the per-partition unordered maps hash on again.
inline std::size_t JoinKeyPartition(std::int64_t key, std::size_t mask) {
  return static_cast<std::size_t>(
             (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
             32) &
         mask;
}

/// A join's build side, hash-partitioned on the key (JoinKeyPartition
/// over `mask + 1` partitions). Probes are read-only, so every worker of a
/// morsel-driven probe shares it.
struct PartitionedHashTables {
  std::shared_ptr<const std::vector<JoinHashTable>> parts;
  std::size_t mask = 0;
  std::vector<ColumnType> types;
};

/// Streams the probe input against read-only partitioned hash tables and
/// emits matches in the join's logical left-then-right column layout
/// (build columns first when `build_is_left`). It collects (probe row,
/// build row) match pairs in probe order, a probe row at a time until
/// kBatchSize pairs are held (so one row's fan-out is the only excess),
/// then gathers them column by column in output chunks of at most
/// kBatchSize rows. Output rowIDs are the probe side's.
class PartitionProbeOperator : public Operator {
 public:
  PartitionProbeOperator(OperatorPtr child,
                         const PartitionedHashTables* tables,
                         std::size_t probe_key, bool build_is_left);

  std::vector<ColumnType> OutputTypes() const override {
    return output_types_;
  }
  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  void CollectPairs();

  OperatorPtr child_;
  const PartitionedHashTables* tables_;
  std::size_t probe_key_;
  std::size_t build_off_;
  std::size_t probe_off_;
  std::vector<ColumnType> output_types_;

  Batch probe_batch_;
  std::size_t probe_pos_ = 0;  // next probe row to look up
  bool probe_done_ = false;
  // Match pairs of probe rows up to probe_pos_, and how many are emitted.
  std::vector<std::size_t> probe_sel_;
  std::vector<std::uint32_t> build_part_;
  std::vector<std::size_t> build_sel_;
  std::size_t pair_pos_ = 0;
};

/// In-memory equi hash join on INT64 keys. Open() drains the build child
/// into a one-partition hash table (choosing the build side is the
/// caller's job — the paper builds on the patches because their
/// cardinality is typically the smallest, §3.3); the probe child then
/// streams through a PartitionProbeOperator over it, the executor's probe.
/// Output layout: probe columns, then build columns. Output rowIDs are the
/// probe side's.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                   std::size_t build_key, std::size_t probe_key);
  // The probe holds the address of tables_.
  HashJoinOperator(const HashJoinOperator&) = delete;
  HashJoinOperator& operator=(const HashJoinOperator&) = delete;

  std::vector<ColumnType> OutputTypes() const override {
    return probe_->OutputTypes();
  }
  void Open() override;
  bool Next(Batch* out) override { return probe_->Next(out); }
  void Close() override;

 private:
  OperatorPtr build_;
  std::size_t build_key_;
  PartitionedHashTables tables_;  // mask 0; the table is built by Open()
  std::unique_ptr<PartitionProbeOperator> probe_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_HASH_JOIN_H_
