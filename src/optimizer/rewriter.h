#ifndef PATCHINDEX_OPTIMIZER_REWRITER_H_
#define PATCHINDEX_OPTIMIZER_REWRITER_H_

#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "patchindex/index_lookup.h"
#include "patchindex/manager.h"

namespace patchindex {

struct OptimizerOptions {
  /// Apply the PatchIndex rewrites of §3.3 where an index matches.
  bool enable_patch_rewrites = true;

  /// Bypass the cost gate and rewrite whenever an index matches. The
  /// evaluation plots PI variants unconditionally (the paper notes the
  /// optimizer would reject e.g. the Q12 plan, §6.3).
  bool force_patch_rewrites = false;

  CostModel cost_model;
};

/// Applies the PatchIndex rewrite rules to a logical plan:
///  - Distinct over a select-chain on a NUC column  -> kPatchDistinct
///  - Sort   over a select-chain on a NSC column    -> kPatchSort
///  - Join whose right input is a select-chain scan of a NSC column and
///    whose left input is sorted on the join key    -> kPatchJoin
/// Rewrites fire only when `indexes` resolves a matching index and the
/// cost model approves (unless forced). `indexes` is usually the live
/// PatchIndexManager (locked reads, DML row-finding) but may be a pinned
/// MVCC version's immutable index snapshots — resolution is by partition
/// address, so the rewriter needs no notion of versions.
LogicalPtr OptimizePlan(LogicalPtr plan, const IndexLookup& indexes,
                        const OptimizerOptions& options = {});

}  // namespace patchindex

#endif  // PATCHINDEX_OPTIMIZER_REWRITER_H_
