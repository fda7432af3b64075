#ifndef PATCHINDEX_PATCHINDEX_NUC_CONSTRAINT_H_
#define PATCHINDEX_PATCHINDEX_NUC_CONSTRAINT_H_

#include <cstddef>

#include "common/status.h"
#include "patchindex/patch_set.h"
#include "storage/table.h"

namespace patchindex::internal {

/// Nearly-unique-column update handling (paper §5.1/§5.2, Figure 5).
///
/// Runs the insert/modify handling query: the delta tuples (PDT inserts,
/// or the modified tuples with their new values) are joined against the
/// base column; rowIDs of both join sides are merged into the patches,
/// and so is every delta tuple whose new value occurs more than once in
/// the delta. The hash table is built on the delta (lowest cardinality);
/// its key range prunes the probe-side scan to the blocks that can hold a
/// partner, which avoids the full table scan. One pass over the join
/// output marks both sides (the probe rowIDs are the output's, the build
/// rowIDs a delta column). The commit protocol guarantees a PDT holds one
/// delta kind, so the base column is current everywhere except at
/// modified rows.
///
/// For inserts, `patches` must already have been grown by OnAppendRows.
/// With `use_drp` the probe scan is pruned through the column's
/// BlockSummary; without it the probe scans every base row.
/// `scan_fraction` receives the fraction of base rows actually scanned.
Status NucHandleInsert(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction);

/// Modify handling: same query shape with the modified tuples (new
/// values) as build side. A modified row's base value is stale, so the
/// probe skips those rows; their new values meet through the delta's
/// hash map.
Status NucHandleModify(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction);

}  // namespace patchindex::internal

#endif  // PATCHINDEX_PATCHINDEX_NUC_CONSTRAINT_H_
