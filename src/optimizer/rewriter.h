#ifndef PATCHINDEX_OPTIMIZER_REWRITER_H_
#define PATCHINDEX_OPTIMIZER_REWRITER_H_

#include <memory>

#include "exec/operator.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "patchindex/index_lookup.h"
#include "patchindex/manager.h"

namespace patchindex {

namespace obs {
class ExecProfile;
}

struct OptimizerOptions {
  /// Apply the PatchIndex rewrites of §3.3 where an index matches.
  bool enable_patch_rewrites = true;

  /// Bypass the cost gate and rewrite whenever an index matches. The
  /// evaluation plots PI variants unconditionally (the paper notes the
  /// optimizer would reject e.g. the Q12 plan, §6.3).
  bool force_patch_rewrites = false;

  /// Zero-branch pruning (§6.3): when the patch count is known to be 0 at
  /// optimization time, drop the patches subtree and the then-no-op
  /// selection from the plan.
  bool zero_branch_pruning = false;

  /// Buffer the shared subtree "X" of the join rewrite in a ReuseCache
  /// instead of computing it twice (§3.3). Off only for the ablation
  /// benchmark.
  bool buffer_shared_subtrees = true;

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

/// Lowers a (possibly rewritten) logical plan to a physical operator
/// tree. Zero-branch pruning is applied here, where exact patch counts
/// are known. When `profile` is non-null every node's operator is wrapped
/// to record rows and wall time into it (EXPLAIN ANALYZE on the serial
/// path); patch-rewrite sub-operators attribute to their rewrite node's
/// chain, which may execute twice (once per branch).
OperatorPtr CompilePlan(const LogicalPtr& plan,
                        const OptimizerOptions& options = {},
                        obs::ExecProfile* profile = nullptr);

/// Convenience: optimize + scan pruning (AnnotateScanPruning) + compile.
OperatorPtr PlanQuery(LogicalPtr plan, const IndexLookup& indexes,
                      const OptimizerOptions& options = {});

}  // namespace patchindex

#endif  // PATCHINDEX_OPTIMIZER_REWRITER_H_
