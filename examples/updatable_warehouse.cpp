// Updatable warehouse: contrasts the freshness/cost trade-off of a
// materialized view against a PatchIndex under a trickle-update stream
// (the paper's §6.2.4 argument: with equal time budget, PatchIndex update
// cycles can run ~50-100x more frequently, keeping materialized
// information consistent with the live data).

#include <cstdio>

#include "baselines/materialized_view.h"
#include "common/timer.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

using namespace patchindex;

int main() {
  GeneratorConfig cfg;
  cfg.num_rows = 200'000;
  cfg.exception_rate = 0.05;

  // Two identical warehouses.
  Table with_pi = GenerateNucTable(cfg);
  Table with_mv = GenerateNucTable(cfg);

  PatchIndexManager manager;
  manager.CreateIndex(with_pi, 1, ConstraintKind::kNearlyUnique);
  DistinctMaterializedView view(with_mv, 1);

  // 50 trickle-insert transactions of 20 rows each, keeping both
  // representations exact after every transaction.
  constexpr int kTransactions = 50;
  constexpr int kRowsPerTxn = 20;
  std::int64_t key = static_cast<std::int64_t>(cfg.num_rows);

  WallTimer pi_timer;
  for (int txn = 0; txn < kTransactions; ++txn) {
    for (int i = 0; i < kRowsPerTxn; ++i) {
      with_pi.BufferInsert(
          MakeGeneratorRow(key + txn * kRowsPerTxn + i,
                           5'000'000'000LL + txn * kRowsPerTxn + i));
    }
    Status st = manager.CommitUpdateQuery(with_pi);
    if (!st.ok()) {
      std::printf("PatchIndex update failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const double pi_seconds = pi_timer.ElapsedSeconds();

  WallTimer mv_timer;
  for (int txn = 0; txn < kTransactions; ++txn) {
    for (int i = 0; i < kRowsPerTxn; ++i) {
      with_mv.BufferInsert(
          MakeGeneratorRow(key + txn * kRowsPerTxn + i,
                           5'000'000'000LL + txn * kRowsPerTxn + i));
    }
    with_mv.Checkpoint();
    view.Refresh();  // keep the view exact -> full recomputation
  }
  const double mv_seconds = mv_timer.ElapsedSeconds();

  std::printf("%d transactions x %d rows, both kept exactly fresh:\n",
              kTransactions, kRowsPerTxn);
  std::printf("  PatchIndex maintenance:        %8.3f s\n", pi_seconds);
  std::printf("  Materialized view recompute:   %8.3f s  (%.0fx slower)\n",
              mv_seconds, mv_seconds / pi_seconds);

  // Both answer the distinct query identically.
  const Batch pi_rows = PlanQuery(LDistinct(LScan(with_pi, {1}), {0}), manager);
  OperatorPtr mv_plan = view.QueryPlan();
  std::printf("  distinct counts agree: %llu == %llu\n",
              static_cast<unsigned long long>(pi_rows.num_rows()),
              static_cast<unsigned long long>(CountRows(*mv_plan)));
  return 0;
}
