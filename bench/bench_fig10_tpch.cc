// Reproduces Figure 10: TPC-H Q3/Q7/Q12 plus the refresh sets (RF1
// insert, RF2 delete), comparing
//   - w/o constraint (plain hash-join plans),
//   - PI_10% / PI_5% / PI_0%: PatchIndex (bitmap design) on
//     lineitem.l_orderkey over datasets perturbed by 10% / 5% / 0%,
//   - PI_0%_ZBP: zero-branch pruning on the clean dataset,
//   - JoinIndex: the lineitem->orders join materialized as a rowID column.
// Scaled to 20K orders (paper: SF 1000). Also prints the creation times
// the paper quotes in the text (PatchIndex 100s vs JoinIndex 600s at
// their scale — only the ratio is expected to transfer).
//
// Expected shape: PI gain grows as e -> 0; ZBP fastest and at least on
// par with the JoinIndex; Q12's small join makes PI (without ZBP) slower
// than the reference; update overhead of PI slight, JoinIndex slightly
// lower.

#include <cstdio>
#include <functional>
#include <memory>

#include "baselines/join_index.h"
#include "bench_util.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/tpch.h"

namespace patchindex {
namespace {

constexpr std::uint64_t kOrders = 20'000;
constexpr int kReps = 3;
constexpr std::int64_t kQ3Date = 1100;
constexpr std::int64_t kQ7DateLo = 1460;
constexpr std::int64_t kQ7DateHi = 2190;
constexpr std::int64_t kQ12Date = 1460;

// ---- JoinIndex variants of the three queries (hand-built physical
// plans; the lineitem-orders join is read from the materialized rowID
// column, everything else matches the logical plans in workload/tpch.cc).

OperatorPtr JoinIndexQ3(const TpchDatabase& db, const JoinIndex& ji) {
  // Gather: [l_orderkey, extprice, discount, shipdate, o_custkey,
  //          o_orderdate, o_shippriority]
  auto g = ji.QueryPlan({0, 2, 3, 4}, {1, 2, 3});
  auto sel = std::make_unique<SelectOperator>(
      std::move(g), And(Gt(Col(3), ConstInt(kQ3Date)),
                        Lt(Col(5), ConstInt(kQ3Date))));
  auto cust = std::make_unique<SelectOperator>(
      std::make_unique<ScanOperator>(*db.customer,
                                     std::vector<std::size_t>{0, 1}),
      Eq(Col(1), ConstString("BUILDING")));
  auto join = std::make_unique<HashJoinOperator>(
      std::move(cust), std::move(sel), /*build_key=*/0, /*probe_key=*/4);
  auto proj = std::make_unique<ProjectOperator>(
      std::move(join),
      std::vector<ExprPtr>{Col(0), Col(5), Col(6),
                           Mul(Col(1), Sub(ConstDouble(1.0), Col(2)))});
  return std::make_unique<HashAggregateOperator>(
      std::move(proj), std::vector<std::size_t>{0, 1, 2},
      std::vector<AggSpec>{{AggOp::kSum, 3}});
}

OperatorPtr JoinIndexQ7(const TpchDatabase& db, const JoinIndex& ji) {
  const std::vector<Value> nations = {Value("FRANCE"), Value("GERMANY")};
  // Gather: [l_orderkey, l_suppkey, extprice, discount, shipdate,
  //          o_custkey]
  auto g = ji.QueryPlan({0, 1, 2, 3, 4}, {1});
  auto sel = std::make_unique<SelectOperator>(
      std::move(g), And(Ge(Col(4), ConstInt(kQ7DateLo)),
                        Le(Col(4), ConstInt(kQ7DateHi))));
  // cust-nation: probe customer, build filtered nation ->
  // [c_custkey, c_nationkey, n_nationkey, n_name]
  auto cn = std::make_unique<HashJoinOperator>(
      std::make_unique<SelectOperator>(
          std::make_unique<ScanOperator>(*db.nation,
                                         std::vector<std::size_t>{0, 1}),
          InList(Col(1), nations)),
      std::make_unique<ScanOperator>(*db.customer,
                                     std::vector<std::size_t>{0, 2}),
      /*build_key=*/0, /*probe_key=*/1);
  // join on custkey -> [sel cols (6), cn cols (4)]; cust nation name @ 9.
  auto j2 = std::make_unique<HashJoinOperator>(std::move(cn), std::move(sel),
                                               /*build_key=*/0,
                                               /*probe_key=*/5);
  // supp-nation: [s_suppkey, s_nationkey, n_nationkey, n_name]
  auto sn = std::make_unique<HashJoinOperator>(
      std::make_unique<SelectOperator>(
          std::make_unique<ScanOperator>(*db.nation,
                                         std::vector<std::size_t>{0, 1}),
          InList(Col(1), nations)),
      std::make_unique<ScanOperator>(*db.supplier,
                                     std::vector<std::size_t>{0, 1}),
      /*build_key=*/0, /*probe_key=*/1);
  // join on suppkey -> [j2 cols (10), sn cols (4)]; supp name @ 13.
  auto j3 = std::make_unique<HashJoinOperator>(std::move(sn), std::move(j2),
                                               /*build_key=*/0,
                                               /*probe_key=*/1);
  auto filter = std::make_unique<SelectOperator>(std::move(j3),
                                                 Ne(Col(13), Col(9)));
  auto proj = std::make_unique<ProjectOperator>(
      std::move(filter),
      std::vector<ExprPtr>{Col(13), Col(9), Div(Col(4), ConstInt(365)),
                           Mul(Col(2), Sub(ConstDouble(1.0), Col(3)))});
  return std::make_unique<HashAggregateOperator>(
      std::move(proj), std::vector<std::size_t>{0, 1, 2},
      std::vector<AggSpec>{{AggOp::kSum, 3}});
}

OperatorPtr JoinIndexQ12(const TpchDatabase& db, const JoinIndex& ji) {
  (void)db;
  // Gather: [l_orderkey, shipdate, commitdate, receiptdate, shipmode,
  //          o_shippriority]
  auto g = ji.QueryPlan({0, 4, 5, 6, 7}, {3});
  auto sel1 = std::make_unique<SelectOperator>(
      std::move(g), InList(Col(4), {Value("MAIL"), Value("SHIP")}));
  auto sel2 = std::make_unique<SelectOperator>(
      std::move(sel1),
      And(And(Lt(Col(2), Col(3)), Lt(Col(1), Col(2))),
          And(Ge(Col(3), ConstInt(kQ12Date)),
              Lt(Col(3), ConstInt(kQ12Date + 365)))));
  auto proj = std::make_unique<ProjectOperator>(
      std::move(sel2), std::vector<ExprPtr>{Col(4), Col(5)});
  return std::make_unique<HashAggregateOperator>(
      std::move(proj), std::vector<std::size_t>{0},
      std::vector<AggSpec>{{AggOp::kSum, 1}, {AggOp::kCount}});
}

double TimePlan(const std::function<OperatorPtr()>& make) {
  return bench::TimeBest(kReps, [&] {
    OperatorPtr plan = make();
    bench::Drain(*plan);
  });
}

struct Dataset {
  TpchDatabase db;
  PatchIndexManager mgr;
  PatchIndex* idx = nullptr;
};

std::unique_ptr<Dataset> MakeDataset(double perturbation) {
  auto ds = std::make_unique<Dataset>();
  TpchConfig cfg;
  cfg.num_orders = kOrders;
  ds->db = GenerateTpch(cfg);
  PerturbLineitemOrder(ds->db.lineitem.get(), perturbation, 37);
  ds->idx = ds->mgr.CreateIndex(*ds->db.lineitem, 0,
                                ConstraintKind::kNearlySorted, {});
  return ds;
}

void RunQueries() {
  std::printf("# Figure 10: TPC-H query runtimes [s], %llu orders\n",
              static_cast<unsigned long long>(kOrders));
  std::printf("%-6s %-12s %-10s %-10s %-10s %-12s %-10s\n", "query",
              "wo_constr", "PI_10%", "PI_5%", "PI_0%", "PI_0%_ZBP",
              "JoinIndex");

  auto ds10 = MakeDataset(0.10);
  auto ds5 = MakeDataset(0.05);
  auto ds0 = MakeDataset(0.0);
  JoinIndex ji(*ds0->db.lineitem, 0, *ds0->db.orders, 0);

  struct QuerySpec {
    const char* name;
    LogicalPtr (*logical)(const TpchDatabase&);
    OperatorPtr (*join_index)(const TpchDatabase&, const JoinIndex&);
  };
  const QuerySpec queries[] = {{"Q3", &BuildQ3, &JoinIndexQ3},
                               {"Q7", &BuildQ7, &JoinIndexQ7},
                               {"Q12", &BuildQ12, &JoinIndexQ12}};

  PatchIndexManager empty;
  for (const auto& q : queries) {
    const double t_ref =
        bench::TimeBest(kReps, [&] { PlanQuery(q.logical(ds0->db), empty); });
    OptimizerOptions forced;
    forced.force_patch_rewrites = true;
    // The PI columns measure the unpruned rewrite, the ZBP column the
    // pruned one.
    ParallelExecOptions unpruned;
    unpruned.zero_branch_pruning = false;
    const double t_pi10 = bench::TimeBest(kReps, [&] {
      PlanQuery(q.logical(ds10->db), ds10->mgr, forced, nullptr, unpruned);
    });
    const double t_pi5 = bench::TimeBest(kReps, [&] {
      PlanQuery(q.logical(ds5->db), ds5->mgr, forced, nullptr, unpruned);
    });
    const double t_pi0 = bench::TimeBest(kReps, [&] {
      PlanQuery(q.logical(ds0->db), ds0->mgr, forced, nullptr, unpruned);
    });
    const double t_zbp = bench::TimeBest(kReps, [&] {
      PlanQuery(q.logical(ds0->db), ds0->mgr, forced);
    });
    const double t_ji =
        TimePlan([&] { return q.join_index(ds0->db, ji); });
    std::printf("%-6s %-12.4f %-10.4f %-10.4f %-10.4f %-12.4f %-10.4f\n",
                q.name, t_ref, t_pi10, t_pi5, t_pi0, t_zbp, t_ji);
  }
}

void RunUpdateSets() {
  std::printf("\n# Figure 10 (update sets): runtime [s]\n");
  std::printf("%-8s %-12s %-12s %-10s\n", "set", "wo_constr", "PatchIndex",
              "JoinIndex");

  // RF1: insert ~200 orders (+~800 lineitems).
  const std::uint64_t kRf1Orders = 200;
  auto run_rf1 = [&](bool with_pi, bool with_ji) {
    TpchConfig cfg;
    cfg.num_orders = kOrders;
    TpchDatabase db = GenerateTpch(cfg);
    PatchIndexManager mgr;
    std::unique_ptr<JoinIndex> ji;
    if (with_pi) {
      mgr.CreateIndex(*db.lineitem, 0, ConstraintKind::kNearlySorted, {});
    }
    if (with_ji) {
      ji = std::make_unique<JoinIndex>(*db.lineitem, 0, *db.orders, 0);
    }
    RefreshSet rf = MakeRf1(db, kRf1Orders, 91);
    return bench::TimeOnce([&] {
      for (Row& r : rf.orders_rows) db.orders->BufferInsert(std::move(r));
      db.orders->Checkpoint();
      for (Row& r : rf.lineitem_rows) {
        db.lineitem->BufferInsert(std::move(r));
      }
      if (with_pi) {
        const Status st = mgr.CommitUpdateQuery(*db.lineitem);
        PIDX_CHECK_MSG(st.ok(), st.ToString().c_str());
      } else {
        db.lineitem->Checkpoint();
      }
      if (with_ji) {
        const Status st = ji->MaintainAfterFactUpdate({});
        PIDX_CHECK_MSG(st.ok(), st.ToString().c_str());
      }
    });
  };

  // RF2: delete ~100 orders and their lineitems.
  const std::uint64_t kRf2Orders = 100;
  auto run_rf2 = [&](bool with_pi, bool with_ji) {
    TpchConfig cfg;
    cfg.num_orders = kOrders;
    TpchDatabase db = GenerateTpch(cfg);
    PatchIndexManager mgr;
    std::unique_ptr<JoinIndex> ji;
    if (with_pi) {
      mgr.CreateIndex(*db.lineitem, 0, ConstraintKind::kNearlySorted, {});
    }
    if (with_ji) {
      ji = std::make_unique<JoinIndex>(*db.lineitem, 0, *db.orders, 0);
    }
    DeleteSet del = MakeRf2(db, kRf2Orders, 92);
    return bench::TimeOnce([&] {
      for (RowId r : del.orders_rows) (void)db.orders->BufferDelete(r);
      db.orders->Checkpoint();
      for (RowId r : del.lineitem_rows) {
        (void)db.lineitem->BufferDelete(r);
      }
      if (with_pi) {
        const Status st = mgr.CommitUpdateQuery(*db.lineitem);
        PIDX_CHECK_MSG(st.ok(), st.ToString().c_str());
      } else {
        db.lineitem->Checkpoint();
      }
      if (with_ji) {
        PIDX_CHECK(ji->MaintainAfterFactUpdate(del.lineitem_rows).ok());
        PIDX_CHECK(ji->MaintainAfterDimDelete(del.orders_rows).ok());
      }
    });
  };

  std::printf("%-8s %-12.4f %-12.4f %-10.4f\n", "Insert",
              run_rf1(false, false), run_rf1(true, false),
              run_rf1(false, true));
  std::printf("%-8s %-12.4f %-12.4f %-10.4f\n", "Delete",
              run_rf2(false, false), run_rf2(true, false),
              run_rf2(false, true));
}

void RunCreation() {
  TpchConfig cfg;
  cfg.num_orders = kOrders;
  TpchDatabase db = GenerateTpch(cfg);
  const double t_pi = bench::TimeOnce([&] {
    auto idx =
        PatchIndex::Create(*db.lineitem, 0, ConstraintKind::kNearlySorted);
  });
  const double t_ji = bench::TimeOnce(
      [&] { JoinIndex ji(*db.lineitem, 0, *db.orders, 0); });
  std::printf("\n# Creation: PatchIndex %.4f s, JoinIndex %.4f s "
              "(paper: 100 s vs ~600 s at SF 1000)\n",
              t_pi, t_ji);
}

}  // namespace
}  // namespace patchindex

int main() {
  patchindex::RunQueries();
  patchindex::RunUpdateSets();
  patchindex::RunCreation();
  return 0;
}
