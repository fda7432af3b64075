// CSV explorer: the adoption path for your own data. Loads a CSV file
// into the engine catalog (schema inferred from the file), runs
// approximate-constraint discovery on every INT64 column, creates a
// PatchIndex for the best candidate, persists it as a checkpoint and runs
// accelerated SQL queries against it.
//
// Usage: csv_explorer [file.csv]  — without an argument, a demo file is
// generated first.
//
// The same flow is available interactively: build/pisql, then
// `.load file.csv t`, `.index t <col> nuc`, `SELECT DISTINCT ...`.

#include <cstdio>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "patchindex/checkpoint.h"
#include "patchindex/discovery.h"
#include "storage/csv.h"
#include "workload/generator.h"

using namespace patchindex;

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // Generate a demo dataset: nearly unique with 3% exceptions.
    path = "/tmp/pidx_demo.csv";
    GeneratorConfig cfg;
    cfg.num_rows = 50'000;
    cfg.exception_rate = 0.03;
    Table demo = GenerateNucTable(cfg);
    Status st = WriteCsvTable(demo, path);
    if (!st.ok()) {
      std::printf("failed to write demo CSV: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("generated demo dataset at %s\n", path.c_str());
  }

  Result<Schema> schema = InferCsvSchema(path);
  if (!schema.ok()) {
    std::printf("schema inference failed: %s\n",
                schema.status().ToString().c_str());
    return 1;
  }
  auto loaded = LoadCsvTable(path, schema.value());
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }

  Engine engine;
  Session session = engine.CreateSession();
  const Table& table =
      *engine.catalog().AddTable("data", std::move(loaded).value()).value();
  std::printf("loaded %llu rows\n",
              static_cast<unsigned long long>(table.num_rows()));

  // Discovery report over all INT64 columns.
  std::size_t best_col = 0;
  double best_match = -1.0;
  ConstraintKind best_kind = ConstraintKind::kNearlyUnique;
  const Schema& s = table.schema();
  for (std::size_t c = 0; c < s.num_fields(); ++c) {
    if (s.field(c).type != ColumnType::kInt64) continue;
    const double n = static_cast<double>(table.num_rows());
    const double nuc =
        1.0 - DiscoverNucPatches(table.column(c)).size() / n;
    const double nsc =
        1.0 - DiscoverNscPatches(table.column(c)).patches.size() / n;
    std::printf("  column '%s': NUC %.1f%%, NSC %.1f%%\n",
                s.field(c).name.c_str(), nuc * 100, nsc * 100);
    if (nuc > best_match && nuc < 1.0 + 1e-9) {
      best_match = nuc;
      best_col = c;
      best_kind = ConstraintKind::kNearlyUnique;
    }
    if (nsc > best_match) {
      best_match = nsc;
      best_col = c;
      best_kind = ConstraintKind::kNearlySorted;
    }
  }

  Status st = session.CreatePatchIndex("data", best_col, best_kind);
  if (!st.ok()) {
    std::printf("index creation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const PatchIndex* idx = engine.catalog().manager().IndexesOn(table).front();
  std::printf("indexed column '%s' (%s), %.2f%% exceptions\n",
              s.field(best_col).name.c_str(),
              best_kind == ConstraintKind::kNearlyUnique ? "NUC" : "NSC",
              idx->exception_rate() * 100);

  const std::string ckpt = path + ".pidx";
  st = SavePatchIndexCheckpoint(*idx, ckpt);
  std::printf("checkpoint: %s (%s)\n", ckpt.c_str(), st.ToString().c_str());

  // Query through SQL; Explain shows whether the PatchIndex rewrite fired.
  const std::string& col = s.field(best_col).name;
  const std::string sql =
      best_kind == ConstraintKind::kNearlyUnique
          ? "SELECT DISTINCT " + col + " FROM data"
          : "SELECT " + col + " FROM data ORDER BY " + col;
  std::printf("%s\n%s", sql.c_str(), session.Explain(sql).value().c_str());
  Result<QueryResult> result = session.Sql(sql);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s rows: %zu\n",
              best_kind == ConstraintKind::kNearlyUnique ? "distinct"
                                                         : "sorted",
              result.value().rows.num_rows());
  return 0;
}
