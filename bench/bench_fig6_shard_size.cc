// Reproduces Figure 6 at two levels.
//
// Part one (bare storage, the original experiment): bulk-delete runtime
// and sharding memory overhead as a function of the shard size, for the
// parallel and the parallel + vectorized (AVX2) implementation. Scaled to
// deleting 100K random elements from a 10M-bit bitmap (paper: 1M from
// 100M).
//
// Expected shape: U-shaped runtime with a minimum around 2^14-bit shards
// (below: per-shard task overhead dominates; above: the intra-shard shift
// dominates), vectorization mattering more at larger shard sizes, and
// memory overhead 64/shard_size.
//
// Part two (the real engine): the paper's §3.2 partition-local scaling
// claim measured end to end — per partition count, the wall time of a
// morsel-parallel scan/aggregate query through a Session and of an
// update-commit (routing + per-partition parallel HandleUpdateQuery ->
// Checkpoint -> AfterCheckpoint with one NUC index per partition).
// Recorded to a BENCH json.
//
// Usage: bench_fig6_shard_size [engine_json_path]   (default
// BENCH_fig6_engine.json in the working directory)

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bitmap/sharded_bitmap.h"
#include "bitmap/shift.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "optimizer/plan.h"

namespace patchindex {
namespace {

constexpr std::uint64_t kBits = 10'000'000;
constexpr std::uint64_t kDeletes = 100'000;

double RunOnce(std::uint64_t shard_bits, bool vectorized,
               const std::vector<std::uint64_t>& kill) {
  static ThreadPool pool(DefaultThreadCount());
  ShardedBitmapOptions opt;
  opt.shard_size_bits = shard_bits;
  opt.vectorized = vectorized;
  opt.pool = &pool;
  ShardedBitmap bm(kBits, opt);
  return bench::TimeOnce([&] { bm.BulkDelete(kill); });
}

// ------------------------------------------------ engine partition sweep

constexpr std::uint64_t kEngineRows = 1'000'000;
constexpr int kEngineReps = 3;
constexpr std::size_t kUpdateBatch = 20'000;

struct SweepResult {
  std::size_t partitions;
  double scan_s;
  double commit_modify_s;
  double commit_insert_s;
  std::uint64_t scan_rows;
};

SweepResult RunEngineSweep(std::size_t partitions) {
  Engine engine;
  Session session = engine.CreateSession();
  Rng rng = bench::SeededRng(6);

  Schema schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
  auto loaded = std::make_unique<PartitionedTable>(schema, partitions);
  for (std::uint64_t i = 0; i < kEngineRows; ++i) {
    loaded->AppendRow(Row{{Value(static_cast<std::int64_t>(i)),
                           Value(static_cast<std::int64_t>(
                               rng.Uniform(0, 1'000)))}});
  }
  const PartitionedTable* table =
      engine.catalog().AddPartitionedTable("t", std::move(loaded)).value();
  // One NUC index per partition, discovered partition-locally.
  Status st =
      session.CreatePatchIndex("t", 0, ConstraintKind::kNearlyUnique);
  if (!st.ok()) {
    std::printf("!! index creation failed: %s\n", st.ToString().c_str());
  }

  SweepResult result;
  result.partitions = partitions;

  // Scan + grouped aggregate through the session (morsel-parallel across
  // partitions).
  std::uint64_t rows = 0;
  result.scan_s = bench::TimeBest(kEngineReps, [&] {
    auto plan = LAggregate(LScan(*table, {1, 0}), {0},
                           {{AggOp::kCount, 0}, {AggOp::kSum, 1}});
    Result<QueryResult> r = session.Execute(std::move(plan));
    rows = r.ok() ? r.value().rows.num_rows() : 0;
  });
  result.scan_rows = rows;

  // Update-commit: a batch of cell modifies routed by global rowID, then
  // a batch of inserts — each committed per-partition in parallel.
  result.commit_modify_s = bench::TimeOnce([&] {
    std::vector<CellUpdate> cells;
    cells.reserve(kUpdateBatch);
    for (std::size_t i = 0; i < kUpdateBatch; ++i) {
      cells.push_back({rng.Uniform(0, kEngineRows - 1), 1,
                       Value(static_cast<std::int64_t>(
                           rng.Uniform(0, 1'000)))});
    }
    Status s = session.ExecuteUpdate("t", UpdateQuery::Modify(std::move(cells)));
    if (!s.ok()) std::printf("!! modify commit: %s\n", s.ToString().c_str());
  });
  result.commit_insert_s = bench::TimeOnce([&] {
    std::vector<Row> inserts;
    inserts.reserve(kUpdateBatch);
    for (std::size_t i = 0; i < kUpdateBatch; ++i) {
      inserts.push_back(Row{{Value(static_cast<std::int64_t>(
                                 kEngineRows + i)),
                             Value(static_cast<std::int64_t>(
                                 rng.Uniform(0, 1'000)))}});
    }
    Status s =
        session.ExecuteUpdate("t", UpdateQuery::Insert(std::move(inserts)));
    if (!s.ok()) std::printf("!! insert commit: %s\n", s.ToString().c_str());
  });
  return result;
}

void WriteEngineJson(const char* path,
                     const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  bench::WriteMachineJson(f);
  std::fprintf(f,
               "  \"bench\": \"bench_fig6 engine partition sweep\",\n"
               "  \"rows\": %llu,\n  \"update_batch\": %zu,\n"
               "  \"scan_reps\": %d,\n  \"results\": [\n",
               static_cast<unsigned long long>(kEngineRows), kUpdateBatch,
               kEngineReps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"partitions\": %zu, \"scan_s\": %.6f, "
                 "\"commit_modify_s\": %.6f, \"commit_insert_s\": %.6f, "
                 "\"scan_rows\": %llu}%s\n",
                 r.partitions, r.scan_s, r.commit_modify_s,
                 r.commit_insert_s,
                 static_cast<unsigned long long>(r.scan_rows),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("engine partition sweep recorded to %s\n", path);
}

}  // namespace
}  // namespace patchindex

int main(int argc, char** argv) {
  using namespace patchindex;
  Rng rng(6);
  std::set<std::uint64_t> kill_set;
  while (kill_set.size() < kDeletes) kill_set.insert(rng.Uniform(0, kBits - 1));
  std::vector<std::uint64_t> kill(kill_set.begin(), kill_set.end());

  std::printf("# Figure 6: sharded bitmap bulk delete (%lluK deletes from "
              "%lluM bits)\n",
              static_cast<unsigned long long>(kDeletes / 1000),
              static_cast<unsigned long long>(kBits / 1'000'000));
  std::printf("%-12s %-18s %-22s %-18s\n", "shard_bits", "parallel[s]",
              "parallel_vect[s]", "mem_overhead[%]");
  if (!CpuSupportsAvx2()) {
    std::printf("# AVX2 unavailable: vectorized arm falls back to scalar\n");
  }
  for (std::uint64_t log_size = 8; log_size <= 19; ++log_size) {
    const std::uint64_t shard_bits = 1ull << log_size;
    const double t_par = RunOnce(shard_bits, /*vectorized=*/false, kill);
    const double t_vec = RunOnce(shard_bits, /*vectorized=*/true, kill);
    const double overhead = 64.0 / static_cast<double>(shard_bits) * 100.0;
    std::printf("2^%-10llu %-18.4f %-22.4f %-18.4f\n",
                static_cast<unsigned long long>(log_size), t_par, t_vec,
                overhead);
  }

  std::printf("\n# Engine partition sweep: %lluK-row table, scan/aggregate "
              "vs per-partition update-commit\n",
              static_cast<unsigned long long>(kEngineRows / 1000));
  std::printf("%-12s %-14s %-20s %-20s\n", "partitions", "scan[s]",
              "commit_modify[s]", "commit_insert[s]");
  std::vector<SweepResult> sweep;
  for (std::size_t partitions : {1, 2, 4, 8, 16}) {
    SweepResult r = RunEngineSweep(partitions);
    std::printf("%-12zu %-14.4f %-20.4f %-20.4f\n", r.partitions, r.scan_s,
                r.commit_modify_s, r.commit_insert_s);
    sweep.push_back(r);
  }
  WriteEngineJson(argc > 1 ? argv[1] : "BENCH_fig6_engine.json", sweep);
  return 0;
}
