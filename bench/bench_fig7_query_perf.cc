// Reproduces Figure 7: runtime of a distinct query (NUC dataset) and a
// sort query (NSC dataset) over exception rates 0..1, comparing
//   - w/o constraint (plain plan),
//   - materialization (materialized view / SortKey),
//   - PI_bitmap and PI_identifier (forced PatchIndex rewrite).
// Scaled to 300K rows (paper: 1B). Expected shape: PatchIndex close to the
// materialization and well below the reference for low/medium e, with the
// gain shrinking as e grows; bitmap ≈ identifier design. Plain and
// PatchIndex plans run on the morsel-driven executor over
// ThreadPool::Default() (hardware threads, or PI_THREADS); the
// materialization baselines' query plans are single-threaded operator
// trees. Every timing is the median of kReps runs with its p10/p90.
//
// Usage: bench_fig7_query_perf [num_rows] [json_path]
// Writes one JSON row per (query, exception rate) to json_path (default
// BENCH_paper.json).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baselines/materialized_view.h"
#include "baselines/sort_key.h"
#include "bench_util.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

constexpr int kReps = 9;
constexpr double kRates[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

PatchIndexOptions IdxOptions(PatchSetDesign design) {
  PatchIndexOptions o;
  o.design = design;
  return o;
}

/// One figure point: a query at one exception rate, all four variants.
struct Point {
  const char* query;
  double e;
  bench::TimeSpread plain;
  bench::TimeSpread materialized;
  bench::TimeSpread pi_bitmap;
  bench::TimeSpread pi_identifier;
};

bench::TimeSpread Time(const std::function<void()>& run) {
  return bench::TimeMedian(kReps, run);
}

void PrintPoint(const Point& p) {
  std::printf("%-6.1f %-12.4f %-14.4f %-12.4f %-14.4f\n", p.e,
              p.plain.median, p.materialized.median, p.pi_bitmap.median,
              p.pi_identifier.median);
}

/// The forced rewrite of `make()`'s plan on each patch-set design.
void TimePatchIndex(const Table& t, ConstraintKind kind,
                    const std::function<LogicalPtr()>& make, Point* p) {
  for (PatchSetDesign design :
       {PatchSetDesign::kBitmap, PatchSetDesign::kIdentifier}) {
    PatchIndexManager mgr;
    mgr.CreateIndex(t, 1, kind, IdxOptions(design));
    OptimizerOptions forced;
    forced.force_patch_rewrites = true;
    const bench::TimeSpread spread =
        Time([&] { PlanQuery(make(), mgr, forced); });
    (design == PatchSetDesign::kBitmap ? p->pi_bitmap : p->pi_identifier) =
        spread;
  }
}

void RunNuc(std::uint64_t rows, std::vector<Point>* points) {
  std::printf("# Figure 7 (NUC): distinct query runtime [s], median of %d, "
              "%llu rows\n",
              kReps, static_cast<unsigned long long>(rows));
  std::printf("%-6s %-12s %-14s %-12s %-14s\n", "e", "wo_constr",
              "mat_view", "PI_bitmap", "PI_identifier");
  for (double e : kRates) {
    GeneratorConfig cfg;
    cfg.num_rows = rows;
    cfg.exception_rate = e;
    Table t = GenerateNucTable(cfg);
    const auto query = [&t] { return LDistinct(LScan(t, {1}), {0}); };
    Point p{"distinct", e, {}, {}, {}, {}};
    PatchIndexManager empty;
    p.plain = Time([&] { PlanQuery(query(), empty); });
    DistinctMaterializedView mv(t, 1);
    p.materialized = Time([&] { bench::Drain(*mv.QueryPlan()); });
    TimePatchIndex(t, ConstraintKind::kNearlyUnique, query, &p);
    PrintPoint(p);
    points->push_back(p);
  }
}

void RunNsc(std::uint64_t rows, std::vector<Point>* points) {
  std::printf("\n# Figure 7 (NSC): sort query runtime [s], median of %d, "
              "%llu rows\n",
              kReps, static_cast<unsigned long long>(rows));
  std::printf("%-6s %-12s %-14s %-12s %-14s\n", "e", "wo_constr",
              "sort_key", "PI_bitmap", "PI_identifier");
  for (double e : kRates) {
    GeneratorConfig cfg;
    cfg.num_rows = rows;
    cfg.exception_rate = e;
    Table t = GenerateNscTable(cfg);
    const auto query = [&t] { return LSort(LScan(t, {1}), {{0, true}}); };
    Point p{"sort", e, {}, {}, {}, {}};
    PatchIndexManager empty;
    p.plain = Time([&] { PlanQuery(query(), empty); });
    Table sk_copy = GenerateNscTable(cfg);
    SortKey sk(&sk_copy, 1);
    p.materialized = Time([&] { bench::Drain(*sk.QueryPlan()); });
    TimePatchIndex(t, ConstraintKind::kNearlySorted, query, &p);
    PrintPoint(p);
    points->push_back(p);
  }
}

void WriteSpread(std::FILE* f, const char* name,
                 const bench::TimeSpread& t, const char* sep) {
  std::fprintf(f,
               "\"%s\": {\"median_s\": %.6f, \"p10_s\": %.6f, "
               "\"p90_s\": %.6f}%s",
               name, t.median, t.p10, t.p90, sep);
}

void WriteJson(const char* path, std::uint64_t rows,
               const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  bench::WriteMachineJson(f);
  std::fprintf(f,
               "  \"bench\": \"bench_fig7_query_perf\",\n"
               "  \"rows\": %llu,\n  \"reps\": %d,\n"
               "  \"executor_threads\": %zu,\n"
               "  \"note\": \"Figure 7: distinct (NUC) and sort (NSC) "
               "query time vs exception rate; plain = no constraint and "
               "pi_* = forced PatchIndex rewrite, both on the executor's "
               "executor_threads workers; materialized = materialized view "
               "/ SortKey, whose query plans are single-threaded operator "
               "trees; speedup = plain / pi_bitmap medians\",\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(rows), kReps,
               ThreadPool::Default().num_threads());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f, "    {\"query\": \"%s\", \"e\": %.1f, ", p.query, p.e);
    WriteSpread(f, "plain", p.plain, ", ");
    WriteSpread(f, "materialized", p.materialized, ", ");
    WriteSpread(f, "pi_bitmap", p.pi_bitmap, ", ");
    WriteSpread(f, "pi_identifier", p.pi_identifier, ", ");
    std::fprintf(f, "\"speedup\": %.3f}%s\n",
                 p.plain.median / p.pi_bitmap.median,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nFigure 7 recorded to %s\n", path);
}

}  // namespace
}  // namespace patchindex

int main(int argc, char** argv) {
  std::uint64_t rows = 300'000;
  if (argc > 1) rows = std::strtoull(argv[1], nullptr, 10);
  const char* json_path = argc > 2 ? argv[2] : "BENCH_paper.json";
  std::vector<patchindex::Point> points;
  patchindex::RunNuc(rows, &points);
  patchindex::RunNsc(rows, &points);
  patchindex::WriteJson(json_path, rows, points);
  return 0;
}
