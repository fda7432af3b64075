// Nearly-sorted analytics: a TPC-H-style warehouse where lineitem is
// *almost* clustered by order key (out-of-order late arrivals). A
// PatchIndex on the sort constraint lets the optimizer replace the
// HashJoin with a MergeJoin for 95% of the data and accelerates ORDER BY
// queries by sorting only the exceptions.

#include <cstdio>

#include "common/timer.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/tpch.h"

using namespace patchindex;

int main() {
  TpchConfig cfg;
  cfg.num_orders = 20'000;
  TpchDatabase db = GenerateTpch(cfg);
  // 5% of lineitem rows arrive out of order.
  PerturbLineitemOrder(db.lineitem.get(), 0.05, 2024);

  PatchIndexManager manager;
  PatchIndex* index = manager.CreateIndex(
      *db.lineitem, /*l_orderkey=*/0, ConstraintKind::kNearlySorted);
  std::printf("lineitem: %llu rows, %llu out-of-order (%.2f%%)\n",
              static_cast<unsigned long long>(db.lineitem->num_rows()),
              static_cast<unsigned long long>(index->NumPatches()),
              index->exception_rate() * 100.0);

  PatchIndexManager no_index;
  for (auto [name, build] :
       {std::pair{"Q3", &BuildQ3}, {"Q7", &BuildQ7}, {"Q12", &BuildQ12}}) {
    WallTimer t1;
    const std::uint64_t rows_plain = PlanQuery(build(db), no_index).num_rows();
    const double t_plain = t1.ElapsedSeconds();

    OptimizerOptions opt;
    opt.force_patch_rewrites = true;
    WallTimer t2;
    const std::uint64_t rows_patched =
        PlanQuery(build(db), manager, opt).num_rows();
    const double t_patched = t2.ElapsedSeconds();

    std::printf("%-4s plain %.3fs -> patched %.3fs (%.2fx), %llu groups%s\n",
                name, t_plain, t_patched, t_plain / t_patched,
                static_cast<unsigned long long>(rows_patched),
                rows_plain == rows_patched ? "" : "  MISMATCH!");
  }

  // ORDER BY on the nearly sorted column: only the 5% exceptions are
  // sorted; the rest is one sorted run, and a k-way merge recombines them.
  WallTimer t3;
  PlanQuery(LSort(LScan(*db.lineitem, {0}), {{0, true}}), no_index);
  const double t_plain_sort = t3.ElapsedSeconds();

  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  WallTimer t4;
  PlanQuery(LSort(LScan(*db.lineitem, {0}), {{0, true}}), manager, opt);
  std::printf("ORDER BY l_orderkey: plain %.3fs -> patched %.3fs\n",
              t_plain_sort, t4.ElapsedSeconds());
  return 0;
}
