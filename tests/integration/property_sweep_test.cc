// Parameterized property sweep across the full configuration matrix:
// every constraint x patch-set design x exception rate runs a mixed
// update stream and must preserve (a) the constraint invariant, (b) the
// patch set / table cardinality agreement, and (c) exact query
// equivalence between rewritten and plain plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

using SweepParam = std::tuple<ConstraintKind, PatchSetDesign, double>;

class PropertySweepTest : public ::testing::TestWithParam<SweepParam> {};

std::string Canonical(Batch b) {
  std::vector<std::int64_t> v = b.columns[0].i64;
  std::sort(v.begin(), v.end());
  std::string out;
  for (auto x : v) out += std::to_string(x) + ",";
  return out;
}

LogicalPtr QueryFor(ConstraintKind kind, const Table& t) {
  switch (kind) {
    case ConstraintKind::kNearlyUnique:
    case ConstraintKind::kNearlyConstant:
      return LDistinct(LScan(t, {1}), {0});
    case ConstraintKind::kNearlySorted:
      return LSort(LScan(t, {1}), {{0, true}});
  }
  return nullptr;
}

TEST_P(PropertySweepTest, UpdateStreamPreservesAllInvariants) {
  const auto [kind, design, e] = GetParam();
  GeneratorConfig cfg;
  cfg.num_rows = 3'000;
  cfg.exception_rate = e;
  Table t = kind == ConstraintKind::kNearlySorted ? GenerateNscTable(cfg)
                                                  : GenerateNucTable(cfg);
  if (kind == ConstraintKind::kNearlyConstant) {
    // Rewrite the value column into a nearly-constant one with the same
    // exception rate.
    Rng crng(2);
    for (RowId r = 0; r < t.num_rows(); ++r) {
      t.column(1).SetInt64(
          r, crng.NextBool(e)
                 ? static_cast<std::int64_t>(crng.Uniform(1, 1'000'000))
                 : 0);
    }
  }

  PatchIndexOptions o;
  o.design = design;
  o.bitmap_options.shard_size_bits = 512;
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, kind, o);
  PatchIndexManager empty;
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;

  Rng rng(static_cast<std::uint64_t>(e * 100) + 7);
  std::int64_t key = 100'000;
  for (int q = 0; q < 15; ++q) {
    switch (q % 3) {
      case 0:
        for (int i = 0; i < 6; ++i) {
          t.BufferInsert(MakeGeneratorRow(
              key++, static_cast<std::int64_t>(rng.Uniform(0, 8'000))));
        }
        break;
      case 1:
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(t.BufferModify(rng.Uniform(0, t.num_rows() - 1), 1,
                                     Value(static_cast<std::int64_t>(
                                         rng.Uniform(0, 8'000))))
                          .ok());
        }
        break;
      case 2: {
        std::set<RowId> kill;
        while (kill.size() < 5) kill.insert(rng.Uniform(0, t.num_rows() - 1));
        for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
        break;
      }
    }
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok()) << "query " << q;
    // (a) constraint invariant
    ASSERT_TRUE(idx->CheckInvariant()) << "query " << q;
    // (b) cardinality agreement
    ASSERT_EQ(idx->patches().NumRows(), t.num_rows()) << "query " << q;
    ASSERT_LE(idx->NumPatches(), idx->patches().NumRows());
  }
  // (c) exact query equivalence, with and without ZBP: the rewrite on
  // four workers over small morsels against the plain plan on one.
  ThreadPool one(1);
  ThreadPool four(4);
  Batch plain = PlanQuery(QueryFor(kind, t), empty, {}, &one);
  LogicalPtr optimized = OptimizePlan(QueryFor(kind, t), mgr, forced);
  ParallelExecOptions unpruned = StressOptions();
  unpruned.zero_branch_pruning = false;
  Batch patched = ExecutePlan(*optimized, four, unpruned);
  EXPECT_EQ(Canonical(std::move(patched)), Canonical(plain));
  Batch pruned = ExecutePlan(*optimized, four, StressOptions());
  EXPECT_EQ(Canonical(std::move(pruned)), Canonical(std::move(plain)));
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, PropertySweepTest,
    ::testing::Combine(
        ::testing::Values(ConstraintKind::kNearlyUnique,
                          ConstraintKind::kNearlySorted,
                          ConstraintKind::kNearlyConstant),
        ::testing::Values(PatchSetDesign::kBitmap,
                          PatchSetDesign::kIdentifier),
        ::testing::Values(0.0, 0.05, 0.3, 0.8)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case ConstraintKind::kNearlyUnique:
          name = "Nuc";
          break;
        case ConstraintKind::kNearlySorted:
          name = "Nsc";
          break;
        case ConstraintKind::kNearlyConstant:
          name = "Ncc";
          break;
      }
      name += std::get<1>(info.param) == PatchSetDesign::kBitmap
                  ? "Bitmap"
                  : "Identifier";
      name += "E" + std::to_string(static_cast<int>(
                        std::get<2>(info.param) * 100));
      return name;
    });

}  // namespace
}  // namespace patchindex
