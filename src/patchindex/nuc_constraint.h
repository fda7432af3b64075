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
/// or the modified tuples) are joined against the visible table on the
/// indexed column; rowIDs of both join sides — excluding the tuple's
/// trivial match with itself — are merged into the patches. The hash
/// table is built on the delta (lowest cardinality); its key range is
/// propagated dynamically into the probe-side scan to avoid the full
/// table scan. Intermediate result caching (Reuse operators) avoids
/// computing the join twice for the two rowID projections.
///
/// For inserts, `patches` must already have been grown by OnAppendRows.
/// With `use_drp` the probe scan is pruned through the column's
/// BlockSummary; without it the probe scans every base row.
/// `scan_fraction` receives the fraction of base rows actually scanned.
Status NucHandleInsert(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction);

/// Modify handling: same query shape with the modified tuples (new
/// values) as build side. The summary bounds the base values, so the
/// probe scans the blocks of the modified rows in addition to the pruned
/// ones.
Status NucHandleModify(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction);

}  // namespace patchindex::internal

#endif  // PATCHINDEX_PATCHINDEX_NUC_CONSTRAINT_H_
