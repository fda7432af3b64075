#ifndef PATCHINDEX_EXEC_SORT_MERGE_H_
#define PATCHINDEX_EXEC_SORT_MERGE_H_

#include <cstddef>
#include <vector>

#include "exec/batch.h"
#include "exec/sort.h"

namespace patchindex {

/// Helpers shared by SortOperator and the morsel-driven executor's
/// order-by and PatchSort (per-worker local sorts followed by a k-way
/// merge of the sorted runs). All functions are pure over their inputs
/// and safe to call from many workers concurrently on distinct batches.

/// True when row `ra` of `a` orders strictly before row `rb` of `b` under
/// `keys`. Both batches must share the column layout the keys refer to.
bool SortedBatchRowLess(const Batch& a, std::size_t ra, const Batch& b,
                        std::size_t rb, const std::vector<SortKeySpec>& keys);

/// Row indices of `data` in sort order. With 0 < limit < num_rows only the
/// first `limit` positions are produced, selected via a heap-based partial
/// sort (std::partial_sort) — the TopN shortcut: O(n log limit) instead of
/// a full O(n log n) sort.
std::vector<std::size_t> SortedPermutation(const Batch& data,
                                           const std::vector<SortKeySpec>& keys,
                                           std::size_t limit = 0);

/// Sorts `data`'s rows in place (a permutation, then one gather per
/// column); with a non-zero limit the result is truncated to the top
/// `limit` rows.
void SortBatchRows(Batch* data, const std::vector<SortKeySpec>& keys,
                   std::size_t limit = 0);

/// K-way merges `parts` — each individually sorted under `keys` — into one
/// globally sorted batch, stopping after `limit` rows when non-zero. All
/// parts must share one column layout; `parts` must be non-empty (empty
/// parts inside the vector are fine and contribute nothing).
Batch MergeSortedBatches(std::vector<Batch> parts,
                         const std::vector<SortKeySpec>& keys,
                         std::size_t limit = 0);

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_SORT_MERGE_H_
