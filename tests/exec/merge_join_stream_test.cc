// Edge-case tests for PatchJoin's merge probe (MergeProbeOperator: a
// materialized, sorted X against a stream of fact batches): equal-key
// runs spanning batch boundaries and exhaustion order.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/merge_probe.h"
#include "exec_test_util.h"

namespace patchindex {
namespace {

/// The merge probe of `fact` against X = `x` (both keyed on column 0).
/// X must outlive the operator.
std::unique_ptr<MergeProbeOperator> Probe(const Batch& x, OperatorPtr fact) {
  return std::make_unique<MergeProbeOperator>(std::move(fact), &x, 0, 0);
}

TEST(MergeJoinStreamTest, EqualRunSpanningMultipleBatches) {
  // Right side: one key repeated 2.5 batches worth of rows.
  const std::size_t reps = kBatchSize * 2 + kBatchSize / 2;
  std::vector<std::int64_t> right(reps, 7);
  const Batch x = MakeI64Batch({6, 7, 8});
  EXPECT_EQ(CountRows(*Probe(x, Source(MakeI64Batch(right)))), reps);
}

TEST(MergeJoinStreamTest, LeftRunTimesRightRun) {
  std::vector<std::int64_t> left(kBatchSize + 3, 5);
  std::vector<std::int64_t> right(4, 5);
  const Batch x = MakeI64Batch(left);
  // The X run crosses kBatchSize: output chunks split inside it.
  auto join = Probe(x, Source(MakeI64Batch(right)));
  join->Open();
  Batch out;
  std::size_t rows = 0;
  while (join->Next(&out)) {
    EXPECT_LE(out.num_rows(), kBatchSize);
    rows += out.num_rows();
  }
  join->Close();
  EXPECT_EQ(rows, left.size() * right.size());
}

TEST(MergeJoinStreamTest, LeftExhaustsFirst) {
  const Batch x = MakeI64Batch({1});
  EXPECT_EQ(CountRows(*Probe(x, Source(MakeI64Batch({1, 2, 3, 4, 5})))), 1u);
}

TEST(MergeJoinStreamTest, RightExhaustsFirst) {
  const Batch x = MakeI64Batch({1, 2, 3, 4, 5});
  EXPECT_EQ(CountRows(*Probe(x, Source(MakeI64Batch({5})))), 1u);
}

TEST(MergeJoinStreamTest, EmptyInputs) {
  const Batch empty = MakeI64Batch({});
  EXPECT_EQ(CountRows(*Probe(empty, Source(MakeI64Batch({1})))), 0u);
  const Batch one = MakeI64Batch({1});
  EXPECT_EQ(CountRows(*Probe(one, Source(MakeI64Batch({})))), 0u);
}

TEST(MergeJoinStreamTest, RandomizedAgainstHashJoin) {
  Rng rng(41);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::int64_t> left, right;
    const std::size_t nl = rng.Uniform(0, 400);
    const std::size_t nr = rng.Uniform(0, 400);
    for (std::size_t i = 0; i < nl; ++i) {
      left.push_back(static_cast<std::int64_t>(rng.Uniform(0, 40)));
    }
    for (std::size_t i = 0; i < nr; ++i) {
      right.push_back(static_cast<std::int64_t>(rng.Uniform(0, 40)));
    }
    std::sort(left.begin(), left.end());
    std::sort(right.begin(), right.end());
    const Batch x = MakeI64Batch(left);
    HashJoinOperator hj(Source(MakeI64Batch(left)),
                        Source(MakeI64Batch(right)), 0, 0);
    EXPECT_EQ(CountRows(*Probe(x, Source(MakeI64Batch(right)))),
              CountRows(hj))
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace patchindex
