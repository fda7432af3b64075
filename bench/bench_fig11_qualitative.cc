// Reproduces Figure 11: qualitative comparison of PatchIndex,
// materialized view, SortKey and JoinIndex along Creation effort (C),
// Memory/Storage overhead (M), Performance impact (P) and Updatability
// (U). The paper assigns these scores by hand from the quantitative
// results; here each axis is measured on a small workload and converted
// to a 1..4 rank (4 = best), so the matrix is regenerated from data.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/join_index.h"
#include "baselines/materialized_view.h"
#include "baselines/sort_key.h"
#include "bench_util.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/generator.h"
#include "workload/tpch.h"

namespace patchindex {
namespace {

struct Scores {
  const char* name;
  double creation_s;      // lower better
  double memory_bytes;    // lower better
  double query_speedup;   // higher better (reference / approach)
  double update_s;        // lower better
};

int RankOf(double v, std::vector<double> all, bool lower_better) {
  std::sort(all.begin(), all.end());
  if (!lower_better) std::reverse(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i] == v) return static_cast<int>(all.size() - i);
  }
  return 1;
}

}  // namespace
}  // namespace patchindex

int main() {
  using namespace patchindex;
  using bench::TimeOnce;

  GeneratorConfig cfg;
  cfg.num_rows = 100'000;
  cfg.exception_rate = 0.1;

  std::vector<Scores> rows;

  // --- PatchIndex (NUC distinct workload + NSC-style updates).
  {
    Table t = GenerateNucTable(cfg);
    PatchIndexManager mgr;
    Scores s{"PatchIndex", 0, 0, 0, 0};
    PatchIndex* idx = nullptr;
    s.creation_s = TimeOnce([&] {
      idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, {});
    });
    s.memory_bytes = static_cast<double>(idx->MemoryUsageBytes());
    PatchIndexManager empty;
    OptimizerOptions forced;
    forced.force_patch_rewrites = true;
    const double t_ref = TimeOnce([&] {
      PlanQuery(LDistinct(LScan(t, {1}), {0}), empty);
    });
    const double t_q = TimeOnce([&] {
      PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, forced);
    });
    s.query_speedup = t_ref / t_q;
    s.update_s = TimeOnce([&] {
      for (int i = 0; i < 10; ++i) {
        t.BufferInsert(MakeGeneratorRow(9'000'000 + i, 8'000'000'000 + i));
        PIDX_CHECK(mgr.CommitUpdateQuery(t).ok());
      }
    });
    rows.push_back(s);
  }

  // --- Materialized view (same workload).
  {
    Table t = GenerateNucTable(cfg);
    Scores s{"Mat.View", 0, 0, 0, 0};
    std::unique_ptr<DistinctMaterializedView> mv;
    s.creation_s =
        TimeOnce([&] { mv = std::make_unique<DistinctMaterializedView>(t, 1); });
    s.memory_bytes = static_cast<double>(mv->MemoryUsageBytes());
    PatchIndexManager empty;
    const double t_ref = TimeOnce([&] {
      PlanQuery(LDistinct(LScan(t, {1}), {0}), empty);
    });
    const double t_q = TimeOnce([&] {
      auto p = mv->QueryPlan();
      bench::Drain(*p);
    });
    s.query_speedup = t_ref / t_q;
    s.update_s = TimeOnce([&] {
      for (int i = 0; i < 10; ++i) {
        t.BufferInsert(MakeGeneratorRow(9'000'000 + i, 8'000'000'000 + i));
        t.Checkpoint();
        mv->Refresh();
      }
    });
    rows.push_back(s);
  }

  // --- SortKey (NSC sort workload).
  {
    Table t = GenerateNscTable(cfg);
    Scores s{"SortKey", 0, 0, 0, 0};
    std::unique_ptr<SortKey> sk;
    s.creation_s = TimeOnce([&] { sk = std::make_unique<SortKey>(&t, 1); });
    s.memory_bytes = 1.0;  // reorders in place: no extra storage
    PatchIndexManager empty;
    Table ref_t = GenerateNscTable(cfg);
    const double t_ref = TimeOnce([&] {
      PlanQuery(LSort(LScan(ref_t, {1}), {{0, true}}), empty);
    });
    const double t_q = TimeOnce([&] {
      auto p = sk->QueryPlan();
      bench::Drain(*p);
    });
    s.query_speedup = t_ref / t_q;
    s.update_s = TimeOnce([&] {
      for (int i = 0; i < 10; ++i) {
        t.BufferInsert(MakeGeneratorRow(9'000'000 + i, i));
        sk->MaintainAfterUpdate();
      }
    });
    rows.push_back(s);
  }

  // --- JoinIndex (TPC-H join workload).
  {
    TpchConfig tcfg;
    tcfg.num_orders = 10'000;
    TpchDatabase db = GenerateTpch(tcfg);
    Scores s{"JoinIndex", 0, 0, 0, 0};
    std::unique_ptr<JoinIndex> ji;
    s.creation_s = TimeOnce([&] {
      ji = std::make_unique<JoinIndex>(*db.lineitem, 0, *db.orders, 0);
    });
    s.memory_bytes = static_cast<double>(ji->MemoryUsageBytes());
    PatchIndexManager empty;
    const double t_ref = TimeOnce([&] {
      PlanQuery(
          LJoin(LScan(*db.orders, {0, 3}, 0), LScan(*db.lineitem, {0, 2}),
                0, 0),
          empty);
    });
    const double t_q = TimeOnce([&] {
      auto p = ji->QueryPlan({0, 2}, {3});
      bench::Drain(*p);
    });
    s.query_speedup = t_ref / t_q;
    s.update_s = TimeOnce([&] {
      RefreshSet rf = MakeRf1(db, 10, 44);
      for (Row& r : rf.lineitem_rows) db.lineitem->BufferInsert(std::move(r));
      db.lineitem->Checkpoint();
      PIDX_CHECK(ji->MaintainAfterFactUpdate({}).ok());
    });
    rows.push_back(s);
  }

  std::printf("# Figure 11: qualitative comparison, rank 1..4 (4 = best)\n");
  std::printf("%-12s %-4s %-4s %-4s %-4s   (measured: create[s], mem[B], "
              "speedup, update[s])\n",
              "approach", "C", "M", "P", "U");
  std::vector<double> cs, ms, ps, us;
  for (const auto& r : rows) {
    cs.push_back(r.creation_s);
    ms.push_back(r.memory_bytes);
    ps.push_back(r.query_speedup);
    us.push_back(r.update_s);
  }
  for (const auto& r : rows) {
    std::printf("%-12s %-4d %-4d %-4d %-4d   (%.4f, %.0f, %.2fx, %.4f)\n",
                r.name, RankOf(r.creation_s, cs, true),
                RankOf(r.memory_bytes, ms, true),
                RankOf(r.query_speedup, ps, false),
                RankOf(r.update_s, us, true), r.creation_s, r.memory_bytes,
                r.query_speedup, r.update_s);
  }
  std::printf("# Paper's qualitative claim: PatchIndex is the balanced\n"
              "# compromise — near-materialization performance with\n"
              "# lightweight updates and moderate memory.\n");
  return 0;
}
