// Morsel-driven execution on N workers vs. one worker, through the
// Engine/Session facade:
//   Q1  grouped aggregation over a 3-column table (scan-bound: 256 groups,
//       so per-worker partial aggregates merge in microseconds),
//   Q2  filtered grouped aggregation (selection fused into the pipeline),
//   Q3  the paper's distinct query over a NUC table with a forced
//       PatchIndex rewrite — the patch-aware scan: every morsel fuses the
//       patch filter, the exceptions are aggregated per worker,
//   Q4  joins (dim ⋈ fact): full materialization, order-by + limit over
//       the join, and the same with a NUC index on the build key (the
//       rewriter's annotation lets the build skip duplicate chaining).
// Reported per thread count: best-of wall time and speedup over the
// one-worker engine ("serial": num_threads = 1, every pipeline inline on
// the calling thread). Row counts are checked against the serial result
// so the comparison cannot silently diverge.
//
// Usage: bench_parallel_scan [num_rows] [join_json_path]
// With a json path, the join-sweep numbers are written there (the
// BENCH_join.json note).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

constexpr int kReps = 3;
constexpr std::int64_t kGroups = 256;

/// (key unique, grp in [0, kGroups), val uniform) — appended column-wise;
/// 10M boxed AppendRow calls would dominate setup.
Table MakeGroupedTable(std::uint64_t rows) {
  Table t(Schema({{"key", ColumnType::kInt64},
                  {"grp", ColumnType::kInt64},
                  {"val", ColumnType::kInt64}}));
  Rng rng = bench::SeededRng(/*salt=*/1);
  for (std::uint64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt64(static_cast<std::int64_t>(i));
    t.column(1).AppendInt64(
        static_cast<std::int64_t>(rng.Uniform(0, kGroups - 1)));
    t.column(2).AppendInt64(
        static_cast<std::int64_t>(rng.Uniform(0, 1'000'000)));
  }
  return t;
}

/// Fact table (fk, val): fk drawn from `dim`'s join-key column (every
/// ~8th row misses), val unique.
Table MakeFactTable(const Table& dim, std::uint64_t rows) {
  Table t(Schema({{"fk", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  Rng rng = bench::SeededRng(/*salt=*/2);
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::int64_t fk = -static_cast<std::int64_t>(i) - 1;
    if (!rng.NextBool(0.125)) {
      fk = dim.column(1).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
    }
    t.column(0).AppendInt64(fk);
    t.column(1).AppendInt64(static_cast<std::int64_t>(i));
  }
  return t;
}

struct SweepResult {
  std::string query;
  std::string threads;  // "serial" or the worker count
  double time_s = 0;
  double speedup = 1.0;
  std::uint64_t rows = 0;
  bool parallel = false;
};

struct QuerySpec {
  const char* name;
  std::function<LogicalPtr()> plan;
  /// Create a NUC index on column 1 of this table in every engine (the
  /// rewriter picks it up for PatchDistinct rewrites and join-key
  /// annotations).
  const Table* nuc_index_on = nullptr;
};

void RunSweep(const char* title, std::uint64_t source_rows,
              const std::vector<QuerySpec>& queries,
              std::vector<SweepResult>* record) {
  std::printf("# %s: %llu rows\n", title,
              static_cast<unsigned long long>(source_rows));
  std::printf("%-22s %-9s %-12s %-10s %-10s\n", "query", "threads",
              "time_s", "speedup", "rows");

  for (const QuerySpec& query : queries) {
    // Serial baseline: same engine facade, one worker. Plans reference
    // the shared tables directly; they are not registered in any catalog,
    // so no locks are taken — the bench is read-only after setup.
    EngineOptions serial_options;
    serial_options.num_threads = 1;
    serial_options.optimizer.force_patch_rewrites = true;
    Engine serial_engine(serial_options);

    std::uint64_t serial_rows = 0;
    Session serial_session = serial_engine.CreateSession();
    if (query.nuc_index_on != nullptr) {
      serial_engine.catalog().manager().CreateIndex(
          *query.nuc_index_on, 1, ConstraintKind::kNearlyUnique);
    }
    const double t_serial = bench::TimeBest(kReps, [&] {
      auto result = serial_session.Execute(query.plan());
      serial_rows = result.value().rows.num_rows();
    });
    std::printf("%-22s %-9s %-12.4f %-10s %-10llu\n", query.name, "serial",
                t_serial, "1.00x",
                static_cast<unsigned long long>(serial_rows));
    if (record != nullptr) {
      record->push_back(
          {query.name, "serial", t_serial, 1.0, serial_rows, false});
    }

    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      EngineOptions options;
      options.num_threads = threads;
      options.optimizer.force_patch_rewrites = true;
      Engine engine(options);
      if (query.nuc_index_on != nullptr) {
        engine.catalog().manager().CreateIndex(
            *query.nuc_index_on, 1, ConstraintKind::kNearlyUnique);
      }
      Session session = engine.CreateSession();
      std::uint64_t rows = 0;
      bool parallel = false;
      const double t = bench::TimeBest(kReps, [&] {
        auto result = session.Execute(query.plan());
        rows = result.value().rows.num_rows();
        parallel = result.value().parallel;
      });
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", t_serial / t);
      std::printf("%-22s %-9zu %-12.4f %-10s %-10llu%s\n", query.name,
                  threads, t, speedup,
                  static_cast<unsigned long long>(rows),
                  parallel ? "" : "  (one worker)");
      if (record != nullptr) {
        record->push_back({query.name, std::to_string(threads), t,
                           t_serial / t, rows, parallel});
      }
      if (rows != serial_rows) {
        std::printf("!! result mismatch: serial=%llu parallel=%llu\n",
                    static_cast<unsigned long long>(serial_rows),
                    static_cast<unsigned long long>(rows));
        std::exit(1);
      }
    }
  }
  std::printf("\n");
}

void WriteJson(const char* path, std::uint64_t rows,
               const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  bench::WriteMachineJson(f);
  std::fprintf(f,
               "  \"bench\": \"bench_parallel_scan join sweep\",\n"
               "  \"fact_rows\": %llu,\n  \"dim_rows\": %llu,\n"
               "  \"reps\": %d,\n"
               "  \"note\": \"speedups need machine.hardware_threads >= the "
               "swept thread counts; on fewer cores the sweep measures "
               "oversubscription overhead, not scaling\",\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(rows),
               static_cast<unsigned long long>(rows / 8), kReps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"query\": \"%s\", \"threads\": \"%s\", "
                 "\"time_s\": %.6f, \"speedup\": %.3f, \"rows\": %llu, "
                 "\"parallel\": %s}%s\n",
                 r.query.c_str(), r.threads.c_str(), r.time_s, r.speedup,
                 static_cast<unsigned long long>(r.rows),
                 r.parallel ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("join sweep recorded to %s\n", path);
}

void Run(std::uint64_t rows, const char* join_json_path) {
  {
    Table grouped = MakeGroupedTable(rows);
    RunSweep(
        "Morsel-parallel grouped aggregation", rows,
        {{"agg_group256",
          [&grouped] {
            return LAggregate(LScan(grouped, {1, 2}), {0},
                              {{AggOp::kCount, 0},
                               {AggOp::kSum, 1},
                               {AggOp::kMin, 1},
                               {AggOp::kMax, 1}});
          }},
         {"filter+agg",
          [&grouped] {
            return LAggregate(
                LSelect(LScan(grouped, {1, 2}), Lt(Col(1), ConstInt(500'000)),
                        0.5),
                {0}, {{AggOp::kCount, 0}, {AggOp::kMax, 1}});
          }}},
        nullptr);
  }

  GeneratorConfig config;
  config.num_rows = rows;
  config.exception_rate = 0.1;
  config.seed = bench::kBenchSeed;
  {
    Table nuc = GenerateNucTable(config);
    RunSweep("Patch-aware parallel scan (NUC distinct)", rows,
             {{"patch_distinct",
               [&nuc] { return LDistinct(LScan(nuc, {1}), {0}); }, &nuc}},
             nullptr);
  }

  // Join sweep: partitioned parallel build over the dim side, morsel-
  // parallel probe over the fact side. The NUC variants let the build
  // treat non-exception keys as unique (no duplicate chaining).
  GeneratorConfig dim_config;
  dim_config.num_rows = rows / 8;
  dim_config.exception_rate = 0.05;
  dim_config.seed = bench::kBenchSeed;
  Table dim = GenerateNucTable(dim_config);
  Table fact = MakeFactTable(dim, rows);
  std::vector<SweepResult> join_results;
  RunSweep(
      "Morsel-parallel hash join (dim ⋈ fact)", rows,
      {{"join_full",
        [&] { return LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0); }},
       {"join_topn100",
        [&] {
          return LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                       {{3, true}}, 100);
        }},
       {"join_nuc_full",
        [&] { return LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0); },
        &dim},
       {"join_nuc_topn100",
        [&] {
          return LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                       {{3, true}}, 100);
        },
        &dim}},
      &join_results);
  if (join_json_path != nullptr) {
    WriteJson(join_json_path, rows, join_results);
  }
}

}  // namespace
}  // namespace patchindex

int main(int argc, char** argv) {
  std::uint64_t rows = 10'000'000;
  if (argc > 1) rows = std::strtoull(argv[1], nullptr, 10);
  patchindex::Run(rows, argc > 2 ? argv[2] : nullptr);
  return 0;
}
