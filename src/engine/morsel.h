#ifndef PATCHINDEX_ENGINE_MORSEL_H_
#define PATCHINDEX_ENGINE_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "storage/minmax.h"

namespace patchindex {

/// Base rows per morsel. Large enough that claiming a morsel (one atomic
/// increment) is noise against scanning it, small enough that stragglers
/// rebalance (morsel-driven parallelism, Leis et al., SIGMOD'14).
inline constexpr std::size_t kDefaultMorselRows = 64 * 1024;

/// A unit of scan work claimed by a worker: a contiguous base-row range of
/// one partition. For plain (unpartitioned) tables and materialized
/// intermediate results `partition` is always 0.
struct Morsel {
  std::size_t partition = 0;
  RowRange range{0, 0};  // partition-local base-row range
  std::size_t seq = 0;   // position in the queue, i.e. in scan order
};

/// Scan work of one partition, for MorselQueue construction.
struct MorselPartition {
  std::size_t partition = 0;
  std::vector<RowRange> ranges;  // partition-local base-row ranges
};

/// Shared work queue the morsel-driven executor's workers pull from.
/// Morsels are pre-chopped at construction — across every partition of a
/// partitioned table, so one queue drives a whole-table scan and workers
/// flow freely between partitions (paper §3.2: partitioning is
/// transparent to query processing). Claiming is one relaxed fetch_add,
/// so any number of workers can drain the queue without locks and faster
/// workers automatically steal the remaining work.
///
/// Thread-safety: construction is single-threaded; afterwards the morsel
/// list is immutable and Next() may be called from any number of threads
/// concurrently. The queue does not own the scanned table — callers keep
/// it alive until every worker has drained.
class MorselQueue {
 public:
  /// Single-table convenience: all ranges belong to partition 0.
  MorselQueue(const std::vector<RowRange>& base_ranges,
              std::size_t morsel_rows = kDefaultMorselRows);

  /// Partition-aware construction: each partition's ranges are chopped
  /// independently, in partition order.
  explicit MorselQueue(const std::vector<MorselPartition>& partitions,
                       std::size_t morsel_rows = kDefaultMorselRows);

  /// Claims the next morsel; false when the queue is drained.
  bool Next(Morsel* out);

  std::size_t num_morsels() const { return morsels_.size(); }

 private:
  void Chop(const std::vector<MorselPartition>& partitions,
            std::size_t morsel_rows);

  std::vector<Morsel> morsels_;  // in scan order
  std::atomic<std::size_t> next_{0};
};

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_MORSEL_H_
