// Integration tests: the full pipeline on the TPC-H subset. Plans with
// PatchIndex rewrites (with and without zero-branch pruning) must return
// exactly the same results as the unoptimized plans, across perturbation
// levels and after refresh-set updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/tpch.h"

namespace patchindex {
namespace {

// Canonical string form of a result batch (rows sorted), for comparing
// plans whose output order differs.
std::string Canonical(Batch b) {
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < b.num_rows(); ++i) {
    std::ostringstream os;
    for (const auto& col : b.columns) {
      switch (col.type) {
        case ColumnType::kInt64:
          os << col.i64[i] << "|";
          break;
        case ColumnType::kDouble:
          os << static_cast<std::int64_t>(col.f64[i] * 100 + 0.5) << "|";
          break;
        case ColumnType::kString:
          os << col.str[i] << "|";
          break;
      }
    }
    rows.push_back(os.str());
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& r : rows) out += r + "\n";
  return out;
}

PatchIndexOptions IdxOptions() {
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 1024;
  return o;
}

class TpchQueryTest : public ::testing::TestWithParam<double> {};

TEST_P(TpchQueryTest, PatchedPlansMatchPlainPlans) {
  TpchConfig cfg;
  cfg.num_orders = 800;
  TpchDatabase db = GenerateTpch(cfg);
  PerturbLineitemOrder(db.lineitem.get(), GetParam(), 31);

  PatchIndexManager mgr;
  mgr.CreateIndex(*db.lineitem, 0, ConstraintKind::kNearlySorted,
                  IdxOptions());
  PatchIndexManager empty;

  struct QuerySpec {
    const char* name;
    LogicalPtr (*build)(const TpchDatabase&);
  };
  const QuerySpec queries[] = {
      {"Q3", &BuildQ3}, {"Q7", &BuildQ7}, {"Q12", &BuildQ12}};

  // The plain plan on one worker against the rewritten plans on four,
  // over small morsels.
  ThreadPool one(1);
  ThreadPool four(4);
  for (const auto& q : queries) {
    const std::string expect =
        Canonical(PlanQuery(q.build(db), empty, {}, &one));

    OptimizerOptions forced;
    forced.force_patch_rewrites = true;
    LogicalPtr optimized = OptimizePlan(q.build(db), mgr, forced);
    ParallelExecOptions unpruned = StressOptions();
    unpruned.zero_branch_pruning = false;
    EXPECT_EQ(Canonical(ExecutePlan(*optimized, four, unpruned)), expect)
        << q.name << " e=" << GetParam();

    EXPECT_EQ(Canonical(ExecutePlan(*optimized, four, StressOptions())),
              expect)
        << q.name << " ZBP e=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(PerturbationLevels, TpchQueryTest,
                         ::testing::Values(0.0, 0.05, 0.10),
                         [](const auto& info) {
                           return "e" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST(TpchQueryTest, RewriterFiresOnAllThreeQueries) {
  TpchConfig cfg;
  cfg.num_orders = 300;
  TpchDatabase db = GenerateTpch(cfg);
  PatchIndexManager mgr;
  mgr.CreateIndex(*db.lineitem, 0, ConstraintKind::kNearlySorted,
                  IdxOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;

  // Q3/Q7: the lineitem join is somewhere in the tree; count patch nodes.
  for (auto* build : {&BuildQ3, &BuildQ7, &BuildQ12}) {
    LogicalPtr optimized = OptimizePlan((*build)(db), mgr, forced);
    int patch_nodes = 0;
    std::function<void(const LogicalNode&)> walk =
        [&](const LogicalNode& n) {
          if (n.kind == LogicalNode::Kind::kPatchJoin) ++patch_nodes;
          for (const auto& c : n.children) walk(*c);
        };
    walk(*optimized);
    EXPECT_EQ(patch_nodes, 1);
  }
}

TEST(TpchUpdateTest, QueriesStayCorrectAcrossRefreshSets) {
  TpchConfig cfg;
  cfg.num_orders = 400;
  TpchDatabase db = GenerateTpch(cfg);
  PerturbLineitemOrder(db.lineitem.get(), 0.05, 13);

  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(*db.lineitem, 0,
                                    ConstraintKind::kNearlySorted,
                                    IdxOptions());
  PatchIndexManager empty;

  // RF1: insert new orders + lineitems.
  RefreshSet rf = MakeRf1(db, 40, 77);
  for (Row& r : rf.orders_rows) db.orders->BufferInsert(std::move(r));
  db.orders->Checkpoint();
  for (Row& r : rf.lineitem_rows) db.lineitem->BufferInsert(std::move(r));
  ASSERT_TRUE(mgr.CommitUpdateQuery(*db.lineitem).ok());
  ASSERT_TRUE(idx->CheckInvariant());

  // RF2: delete a batch of orders and their lineitems.
  DeleteSet del = MakeRf2(db, 30, 78);
  for (RowId r : del.orders_rows) ASSERT_TRUE(db.orders->BufferDelete(r).ok());
  db.orders->Checkpoint();
  for (RowId r : del.lineitem_rows) {
    ASSERT_TRUE(db.lineitem->BufferDelete(r).ok());
  }
  ASSERT_TRUE(mgr.CommitUpdateQuery(*db.lineitem).ok());
  ASSERT_TRUE(idx->CheckInvariant());

  // Post-update, rewritten plans still agree with plain plans.
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  for (auto* build : {&BuildQ3, &BuildQ7, &BuildQ12}) {
    EXPECT_EQ(Canonical(PlanQuery((*build)(db), mgr, forced)),
              Canonical(PlanQuery((*build)(db), empty)));
  }
}

}  // namespace
}  // namespace patchindex
