#ifndef PATCHINDEX_ENGINE_EXECUTOR_H_
#define PATCHINDEX_ENGINE_EXECUTOR_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "engine/morsel.h"
#include "exec/batch.h"
#include "optimizer/plan.h"
#include "optimizer/rewriter.h"

namespace patchindex {

namespace obs {
class ExecProfile;
class MemoryTracker;
class TraceBuffer;
}

struct ParallelExecOptions {
  /// Base rows per morsel.
  std::size_t morsel_rows = kDefaultMorselRows;

  /// Zero-branch pruning (§6.3): a patch rewrite whose index holds no
  /// patches (or only patches) when it executes skips the branch known to
  /// be empty, and the then-no-op patch selection. Off only to measure the
  /// unpruned plan (Fig. 10's PI columns).
  bool zero_branch_pruning = true;

  /// When set, every worker operator is wrapped to record rows, morsel
  /// counts, and per-worker wall time into this accumulator (EXPLAIN
  /// ANALYZE). Null — the default — adds no per-batch work.
  obs::ExecProfile* profile = nullptr;

  /// When set (the statement was trace-sampled), every worker records one
  /// span per lifetime (lane = worker index + 1) and one span per drained
  /// morsel onto this buffer. Null — the default — adds nothing.
  obs::TraceBuffer* trace = nullptr;

  /// Per-query memory tracker. Worker tasks install it as their thread's
  /// CurrentQueryTracker and charge materialization points (join builds,
  /// local-sort buffers, aggregate tables, drained result parts) against
  /// it; an over-budget charge throws and unwinds once every worker of the
  /// phase has finished. Null — the default — disables accounting.
  obs::MemoryTracker* memory = nullptr;
};

/// What the executor did with a plan, for the Session's execution-path
/// counters and QueryResult reporting.
struct ParallelExecReport {
  /// Most workers any phase of the plan ran on; 1 means the whole plan
  /// ran inline on the calling thread.
  std::size_t workers = 0;
  /// A join (plain or PatchJoin) probed on more than one worker.
  bool parallel_join = false;
  /// An order-by (Sort or PatchSort) ran as several per-worker sorted
  /// runs combined by a k-way merge.
  bool parallel_sort = false;
};

/// Executes an optimized plan of any shape with morsel-driven parallelism
/// and returns its rows. The plan is cut into pipelines: a scan chain's
/// base rows are chopped into morsels that every worker pulls from a
/// shared queue (patch-aware scans fuse the PatchIndex filter into each
/// morsel's scan), Select/Project and join probes run per worker, and
/// aggregates, sorts and join builds end a pipeline as per-worker partial
/// aggregates + merge, local sorts + k-way merge, and a partitioned
/// parallel build. A child that is not a scan chain (an aggregate, a sort,
/// PatchJoin's sorted input X) is executed first, on the calling thread,
/// and read back as a morsel source. The §3.3 rewrites run as:
///   - PatchDistinct: the constraint-satisfying rows stream through
///     unaggregated; the patches are distinct-aggregated per worker.
///   - PatchSort: the constraint-satisfying rows, kept in morsel order,
///     form one sorted run; the patches are sorted per worker; the k-way
///     merge combines the runs.
///   - PatchJoin: X is executed once; each batch of constraint-satisfying
///     fact rows merge-joins the key sub-range of X it covers (binary
///     search); the fact patches are the build side of a hash join that
///     X's morsels probe.
///
/// Workers = min(pool threads, morsels of the pipeline's pruned input),
/// per pipeline; a single worker runs inline on the calling thread with
/// no pool hand-off and returns rows in input order. On several workers a
/// result's row order is whatever the workers produced, except where the
/// plan orders it (sorts) or the executor relies on it: PatchSort's
/// constraint-satisfying run and PatchJoin's sorted X keep input order.
///
/// A plan reads checkpointed tables only: every partition it scans must
/// have an empty PDT, or ExecutePlan aborts (PIDX_CHECK). Pending deltas
/// become readable through Table::Checkpoint or the §5 commit protocol.
///
/// Thread-safety: catalog tables must be read through a PinnedReadSet
/// (Session::Execute does), or under the table's exclusive lock (DML row
/// finding); the executor itself only reads tables. Multiple queries may
/// execute concurrently on one pool — each awaits only its own tasks.
/// Throws obs::ResourceExhaustedError when a memory charge runs over
/// budget. When `report` is non-null it is filled with what ran.
Batch ExecutePlan(const LogicalNode& plan, ThreadPool& pool,
                  const ParallelExecOptions& options = {},
                  ParallelExecReport* report = nullptr);

/// Convenience for benchmarks, examples and tests: OptimizePlan with
/// `options` + scan pruning (AnnotateScanPruning) + ExecutePlan with
/// `exec` on `pool` (ThreadPool::Default() when null).
Batch PlanQuery(LogicalPtr plan, const IndexLookup& indexes,
                const OptimizerOptions& options = {},
                ThreadPool* pool = nullptr,
                const ParallelExecOptions& exec = {});

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_EXECUTOR_H_
