#include <gtest/gtest.h>

#include <algorithm>

#include "exec/hash_join.h"
#include "exec/merge_probe.h"
#include "exec_test_util.h"

namespace patchindex {
namespace {

TEST(HashJoinTest, InnerJoinBasic) {
  // probe keys {1,2,3,4}, build keys {2,4,6} -> matches on 2 and 4.
  HashJoinOperator join(Source(MakeI64Batch2({2, 4, 6}, {200, 400, 600})),
                        Source(MakeI64Batch({1, 2, 3, 4})),
                        /*build_key=*/0, /*probe_key=*/0);
  Batch out = Collect(join);
  ASSERT_EQ(out.num_rows(), 2u);
  // Output: probe cols then build cols.
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{2, 4}));
  EXPECT_EQ(out.columns[2].i64, (std::vector<std::int64_t>{200, 400}));
}

TEST(HashJoinTest, DuplicateBuildKeysProduceAllMatches) {
  HashJoinOperator join(Source(MakeI64Batch2({5, 5}, {1, 2})),
                        Source(MakeI64Batch({5})), 0, 0);
  Batch out = Collect(join);
  ASSERT_EQ(out.num_rows(), 2u);
  std::vector<std::int64_t> build_vals = out.columns[2].i64;
  std::sort(build_vals.begin(), build_vals.end());
  EXPECT_EQ(build_vals, (std::vector<std::int64_t>{1, 2}));
}

TEST(HashJoinTest, EmptyBuildSideYieldsEmptyResult) {
  HashJoinOperator join(Source(MakeI64Batch({})),
                        Source(MakeI64Batch({1, 2})), 0, 0);
  EXPECT_EQ(Collect(join).num_rows(), 0u);
}

TEST(MergeJoinTest, SortedInputsInnerJoin) {
  const Batch x = MakeI64Batch2({1, 3, 5}, {10, 30, 50});
  MergeProbeOperator join(Source(MakeI64Batch2({2, 3, 5, 6}, {20, 33, 55, 66})),
                          &x, 0, 0);
  Batch out = Collect(join);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{3, 5}));
  EXPECT_EQ(out.columns[1].i64, (std::vector<std::int64_t>{30, 50}));
  EXPECT_EQ(out.columns[3].i64, (std::vector<std::int64_t>{33, 55}));
}

TEST(MergeJoinTest, EqualKeyRunsProduceCrossProduct) {
  const Batch x = MakeI64Batch2({7, 7}, {1, 2});
  MergeProbeOperator join(Source(MakeI64Batch2({7, 7, 7}, {10, 20, 30})), &x,
                          0, 0);
  Batch out = Collect(join);
  EXPECT_EQ(out.num_rows(), 6u);
}

TEST(MergeJoinTest, MatchesHashJoinOnRandomInput) {
  // Property: merge probe over sorted inputs == hash join (same multiset
  // of result keys).
  std::vector<std::int64_t> left, right;
  for (int i = 0; i < 200; ++i) left.push_back(i % 37);
  for (int i = 0; i < 150; ++i) right.push_back(i % 23);
  std::sort(left.begin(), left.end());
  std::sort(right.begin(), right.end());

  const Batch x = MakeI64Batch(left);
  MergeProbeOperator mj(Source(MakeI64Batch(right)), &x, 0, 0);
  Batch m = Collect(mj);
  HashJoinOperator hj(Source(MakeI64Batch(left)), Source(MakeI64Batch(right)),
                      0, 0);
  Batch h = Collect(hj);
  ASSERT_EQ(m.num_rows(), h.num_rows());
  std::vector<std::int64_t> mk = m.columns[0].i64;
  std::vector<std::int64_t> hk = h.columns[0].i64;
  std::sort(mk.begin(), mk.end());
  std::sort(hk.begin(), hk.end());
  EXPECT_EQ(mk, hk);
}

}  // namespace
}  // namespace patchindex
