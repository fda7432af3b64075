#ifndef PATCHINDEX_OBS_PROFILE_H_
#define PATCHINDEX_OBS_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace patchindex {

struct LogicalNode;

namespace obs {

/// Per-plan-node accumulator filled by the executor while a profiled
/// query runs. Workers add with relaxed atomics; the coordinator reads
/// after the worker barrier, so no stronger ordering is needed.
struct NodeStats {
  /// Rows produced by the operator, summed across workers. For merge
  /// operators (aggregate/sort), the coordinator overwrites this with the
  /// final merged row count — per-worker partial-group counts depend on
  /// morsel scheduling and would not be deterministic.
  std::atomic<std::uint64_t> rows{0};
  /// Morsels claimed from the shared queue (scan nodes only).
  std::atomic<std::uint64_t> morsels{0};
  /// Worker pipeline instances that executed this operator.
  std::atomic<std::uint64_t> workers{0};
  /// Wall time inside the operator (inclusive of its inputs), summed
  /// across workers, nanoseconds.
  std::atomic<std::uint64_t> time_ns{0};
  /// Slowest single worker's inclusive wall time, nanoseconds.
  std::atomic<std::uint64_t> max_worker_ns{0};
  /// Join build phase wall time (join nodes only), nanoseconds.
  std::atomic<std::uint64_t> build_ns{0};
  /// Bytes this operator materialized (hash tables, sort buffers, spill
  /// partitions), summed across workers. Estimates are content-based —
  /// per-worker parts sum to the same total regardless of morsel
  /// scheduling — so the figure is deterministic for a fixed input.
  std::atomic<std::uint64_t> mem_bytes{0};

  void AddWorkerTime(std::uint64_t ns) {
    time_ns.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_worker_ns.load(std::memory_order_relaxed);
    while (prev < ns && !max_worker_ns.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }
};

/// Execution-time profile accumulator, keyed by plan node. The whole plan
/// is registered up front on the coordinator thread; workers then only do
/// read-only lookups, so StatsFor is safe without locking while the query
/// runs.
class ExecProfile {
 public:
  /// Pre-registers every node of `plan` (recursively). Must be called
  /// before any worker touches the profile.
  void RegisterPlan(const LogicalNode& plan);

  /// The accumulator for `node`; registers it on the spot if RegisterPlan
  /// missed it (coordinator-thread use only).
  NodeStats& StatsFor(const LogicalNode* node);

  /// Lookup without registration; nullptr when the node is unknown. Safe
  /// from worker threads (the map is read-only once registration is
  /// done); the returned stats are written with atomics.
  NodeStats* Find(const LogicalNode* node) const;

 private:
  std::unordered_map<const LogicalNode*, std::unique_ptr<NodeStats>> stats_;
};

/// One plan operator's finished measurements, self-contained (no plan
/// pointers), in pre-order plan position.
struct OpProfile {
  std::string label;
  int depth = 0;
  std::uint64_t rows = 0;
  std::uint64_t morsels = 0;
  /// Scan nodes whose block pruning skipped blocks: blocks visited and
  /// blocks in the table. Both 0 for every other node.
  std::uint64_t kept_blocks = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t workers = 0;
  double time_ms = 0.0;
  double max_worker_ms = 0.0;
  double build_ms = 0.0;
  std::uint64_t mem_bytes = 0;
};

/// Where a statement is in its funnel. Every phase surface — the
/// QueryProfile fields, pi_stats.queries columns, the phase histograms,
/// trace span names and pi_stats.active_queries — is keyed by it through
/// kPhases below.
enum class QueryPhase : int {
  kParse = 0,
  kBind,
  kOptimize,
  /// Plan execution for reads; row matching / delta building for DML.
  kExecute,
  /// DML waiting for the table's writer–writer lock (readers never hold
  /// it under MVCC). pi_stats.active_queries shows the blocking table,
  /// e.g. "commit_wait(orders)".
  kCommitWait,
  /// PatchIndex commit protocol (handle -> checkpoint -> maintain) (DML).
  kCommit,
};

/// One statement's phase durations and end-to-end total, milliseconds —
/// the shared base of QueryProfile and QueryRecord, so the flight
/// recorder copies a profile's timings in one assignment.
struct PhaseTimes {
  double parse_ms = 0.0;
  double bind_ms = 0.0;
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  double commit_wait_ms = 0.0;
  double commit_ms = 0.0;
  double total_ms = 0.0;
};

/// One phase's names on every surface.
struct PhaseInfo {
  QueryPhase phase;
  /// Trace span and pi_stats.active_queries name; pi_stats.queries
  /// serves the phase as column `<name>_ms`.
  const char* name;
  /// Label in the rendered `phases:` lines (commit_wait prints "lock").
  const char* label;
  double PhaseTimes::*ms;
  /// The phase's latency histogram and its help text.
  const char* metric;
  const char* help;
};

/// The phase table, in QueryPhase order — the one list the wire codec,
/// pi_stats.queries, the engine's histograms and the renderers iterate.
inline constexpr std::array<PhaseInfo, 6> kPhases = {{
    {QueryPhase::kParse, "parse", "parse", &PhaseTimes::parse_ms,
     "pidx_phase_parse_us", "SQL parse phase"},
    {QueryPhase::kBind, "bind", "bind", &PhaseTimes::bind_ms,
     "pidx_phase_bind_us", "Bind phase"},
    {QueryPhase::kOptimize, "optimize", "optimize", &PhaseTimes::optimize_ms,
     "pidx_phase_optimize_us", "Plan optimization phase"},
    {QueryPhase::kExecute, "execute", "execute", &PhaseTimes::execute_ms,
     "pidx_phase_execute_us", "Plan execution / DML delta-build phase"},
    // The table-lock wait is a wait event first: it lands in the
    // pidx_wait_* family, next to the pool and server queue waits.
    {QueryPhase::kCommitWait, "commit_wait", "lock",
     &PhaseTimes::commit_wait_ms, "pidx_wait_table_lock_us",
     "Wait event: time blocked acquiring a table's writer-writer lock "
     "(DML; under MVCC readers never hold it, so this measures writer "
     "contention only)"},
    {QueryPhase::kCommit, "commit", "commit", &PhaseTimes::commit_ms,
     "pidx_phase_commit_us", "PatchIndex commit protocol phase (DML)"},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kPhases.size(); ++i) {
        if (static_cast<std::size_t>(kPhases[i].phase) != i) return false;
      }
      return true;
    }(),
    "kPhases must list the phases in QueryPhase order");

inline const PhaseInfo& PhaseOf(QueryPhase phase) {
  return kPhases[static_cast<std::size_t>(phase)];
}

/// A finished query's profile: phase spans, execution mode, and (when
/// operator profiling was requested, i.e. EXPLAIN ANALYZE) the annotated
/// operator tree. Attached to QueryResult::profile.
struct QueryProfile : PhaseTimes {
  bool parallel = false;
  bool parallel_join = false;
  bool parallel_sort = false;
  /// Most workers any phase of the plan ran on; 1 renders as
  /// "execution: serial".
  std::size_t pool_workers = 0;
  /// Statement-wide peak of the per-query MemoryTracker — the figure
  /// QueryRecord::peak_mem_bytes and pi_stats.queries report.
  std::uint64_t peak_mem_bytes = 0;

  /// Pre-order operator tree; empty unless operator profiling ran.
  std::vector<OpProfile> ops;

  /// The EXPLAIN ANALYZE rendering: one line per operator
  /// (`label  [rows=.., morsels=.., workers=.., time=..ms]`, with
  /// `blocks=<kept>/<total>` after the morsels on a pruned scan) followed by
  /// a `phases:` line and an `execution:` line. Row/morsel/worker counts
  /// are deterministic for a fixed engine configuration; times are not —
  /// golden tests mask `..ms` values.
  std::vector<std::string> RenderLines() const;
};

/// Converts `profile`'s per-node accumulators into `out->ops` in plan
/// pre-order, labelling each node with its EXPLAIN label.
void FillOpProfiles(const LogicalNode& plan, const ExecProfile& profile,
                    QueryProfile* out);

}  // namespace obs
}  // namespace patchindex

#endif  // PATCHINDEX_OBS_PROFILE_H_
