#ifndef PATCHINDEX_OPTIMIZER_SCAN_PRUNING_H_
#define PATCHINDEX_OPTIMIZER_SCAN_PRUNING_H_

#include "optimizer/plan.h"

namespace patchindex {

/// Block pruning (Small Materialized Aggregates, Moerkotte [22]): sets
/// LogicalNode::pruning on every scan of `plan` that sits under a chain of
/// selections carrying `#col {=,<,<=,>,>=} value` conjuncts on INT64
/// columns (CollectColumnBounds), and clears it on every other scan. Per
/// partition, only the blocks whose cached min/max summary
/// (Column::BlockSummary) can satisfy every such conjunct are kept.
///
/// The selections stay in the plan, so pruning only skips blocks that
/// cannot match and never decides an answer. Plans read checkpointed
/// tables only (see ExecutePlan), so the summaries bound every value a
/// scan can see.
///
/// Run once per execution, after OptimizePlan and after parameters are
/// bound, on the tables the execution reads. Row-count estimates keep
/// using the unpruned row counts.
void AnnotateScanPruning(LogicalNode* plan);

}  // namespace patchindex

#endif  // PATCHINDEX_OPTIMIZER_SCAN_PRUNING_H_
