#ifndef PATCHINDEX_ENGINE_EXECUTOR_H_
#define PATCHINDEX_ENGINE_EXECUTOR_H_

#include <cstddef>

#include "common/thread_pool.h"
#include "engine/morsel.h"
#include "exec/batch.h"
#include "optimizer/plan.h"

namespace patchindex {

namespace obs {
class ExecProfile;
class MemoryTracker;
class TraceBuffer;
}

struct ParallelExecOptions {
  /// Base rows per morsel.
  std::size_t morsel_rows = kDefaultMorselRows;

  /// Plans whose largest scanned table has fewer visible rows than this
  /// run on the serial operator tree — forking workers costs more than
  /// the scan. 0 forces the parallel path (used by the equivalence
  /// tests).
  std::size_t min_parallel_rows = 16 * kBatchSize;

  /// When set, every worker operator is wrapped to record rows, morsel
  /// counts, and per-worker wall time into this accumulator (EXPLAIN
  /// ANALYZE). Null — the default — adds no per-batch work.
  obs::ExecProfile* profile = nullptr;

  /// When set (the statement was trace-sampled), every worker records one
  /// span per lifetime (lane = worker index + 1) and one span per drained
  /// morsel batch onto this buffer. Null — the default — adds nothing.
  obs::TraceBuffer* trace = nullptr;

  /// Per-query memory tracker. Worker tasks install it as their thread's
  /// CurrentQueryTracker and charge materialization points (join builds,
  /// local-sort buffers, aggregate tables, drained result parts) against
  /// it; an over-budget charge throws and unwinds through AwaitAll. Null
  /// — the default — disables accounting on the parallel path.
  obs::MemoryTracker* memory = nullptr;
};

/// What the parallel executor did with a plan, for the Session's
/// execution-path counters and QueryResult reporting. Only meaningful
/// when ExecuteParallel returned true.
struct ParallelExecReport {
  /// The plan contained a join executed as a partitioned parallel build
  /// plus a morsel-parallel probe.
  bool parallel_join = false;
  /// The plan's order-by ran as per-worker local sorts combined by a
  /// k-way merge (with the heap-based TopN shortcut when a limit was
  /// present). False when a sort was applied serially to an already
  /// merged (small) aggregate result.
  bool parallel_sort = false;
};

/// True when `plan` (after optimization) has a shape the morsel-driven
/// executor handles:
///   - a Scan / Select / Project pipeline over one table — plain or
///     partitioned (a partitioned scan draws morsels from every
///     partition through one shared queue, offsetting rowIDs to the
///     table-global numbering),
///   - optionally with an inner equi join of two such pipelines at the
///     bottom (partition-parallel build over the build side's morsels, a
///     barrier, then a parallel probe fused into the probe pipeline;
///     further Select / Project operators may sit above the join),
///   - optionally rooted by a grouping Aggregate or Distinct (executed as
///     per-worker partial aggregation + final merge aggregation),
///   - optionally rooted by a Sort / TopN (per-worker local sort, k-way
///     merge; over an Aggregate the final sort is applied to the merged
///     result),
///   - a PatchDistinct rewrite over a NUC or NCC index (the patch-aware
///     scan: both the exclude-patches and use-patches branches are
///     morsel-parallel).
/// Everything else — PatchSort / PatchJoin rewrites, joins of non-chain
/// inputs (e.g. a join over an aggregate), global aggregates without
/// group columns — falls back to the serial operator tree.
bool ParallelPlanSupported(const LogicalNode& plan);

/// Executes an optimized plan with morsel-driven parallelism: base rows
/// are chopped into morsels, every pool worker runs its own copy of the
/// pipeline pulling morsels from a shared queue (patch-aware scans fuse
/// the PatchIndex filter into each morsel's scan), and per-worker results
/// are merged. Join plans run in two phases — per-worker partitioned
/// build over the build side's morsels, a barrier, then a parallel probe
/// against the read-only partition tables; a NUC index on the build key
/// (annotated by the rewriter) lets the build skip duplicate chaining
/// for non-exception rows. Unless the plan is rooted by a Sort, row
/// order differs from the serial tree; row contents are identical. One
/// exception: a Sort with a limit whose ties straddle the cutoff may
/// keep different tied rows than the serial tree — both are valid top-k
/// answers, and fully tie-broken sort keys make the output exact.
/// Returns false — leaving `out` untouched — when the plan shape is
/// unsupported or the driving table is below `min_parallel_rows`, in
/// which case the caller should compile and run the serial tree. When
/// `report` is non-null it is filled with which parallel paths ran.
///
/// Thread-safety: catalog tables must be read through a PinnedReadSet
/// (Session::Execute does), which points their scans at immutable
/// snapshots; the executor itself only reads tables. Multiple queries
/// may execute concurrently on one pool — each awaits only its own
/// tasks.
bool ExecuteParallel(const LogicalNode& plan, ThreadPool& pool,
                     const ParallelExecOptions& options, Batch* out,
                     ParallelExecReport* report = nullptr);

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_EXECUTOR_H_
