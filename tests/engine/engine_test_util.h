#ifndef PATCHINDEX_TESTS_ENGINE_ENGINE_TEST_UTIL_H_
#define PATCHINDEX_TESTS_ENGINE_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "exec/batch.h"

namespace patchindex {

/// Materializes an all-INT64 batch as sorted rows, for order-insensitive
/// equality between runs whose row order may legitimately differ (merged
/// partial aggregates, a rewrite against its unrewritten plan).
inline std::vector<std::vector<std::int64_t>> SortedRows(const Batch& batch) {
  std::vector<std::vector<std::int64_t>> rows(batch.num_rows());
  for (std::size_t c = 0; c < batch.columns.size(); ++c) {
    EXPECT_EQ(batch.columns[c].type, ColumnType::kInt64);
  }
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    rows[r].reserve(batch.columns.size());
    for (const ColumnVector& col : batch.columns) {
      rows[r].push_back(col.i64[r]);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

inline void ExpectSameRows(const Batch& expected, const Batch& actual) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size());
  EXPECT_EQ(SortedRows(expected), SortedRows(actual));
}

/// Exact row-for-row equality, for plans whose output order is part of
/// the contract (fully tie-broken sorts).
inline void ExpectSameOrderedRows(const Batch& expected, const Batch& actual) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (std::size_t c = 0; c < expected.columns.size(); ++c) {
    ASSERT_EQ(expected.columns[c].type, ColumnType::kInt64);
    EXPECT_EQ(expected.columns[c].i64, actual.columns[c].i64) << "col " << c;
  }
}

/// Runs `plan` on one worker: a one-thread pool, so every pipeline runs
/// inline on the calling thread.
inline Batch RunOneWorker(const LogicalNode& plan) {
  ThreadPool one(1);
  return ExecutePlan(plan, one);
}

/// Small morsels so even 2K-row test tables produce at least four of
/// them, stressing morsel boundaries, range re-anchoring and the inserts
/// morsel.
inline ParallelExecOptions StressOptions() {
  ParallelExecOptions options;
  options.morsel_rows = 512;
  return options;
}

/// `plan` on `pool`'s workers over StressOptions morsels must return the
/// rows `reference` (default: `plan` itself) returns on one worker —
/// pass the unrewritten plan to check a rewrite against it.
inline void ExpectEquivalent(const LogicalPtr& plan, ThreadPool& pool,
                             const LogicalPtr& reference = nullptr) {
  ExpectSameRows(RunOneWorker(reference != nullptr ? *reference : *plan),
                 ExecutePlan(*plan, pool, StressOptions()));
}

/// Same, row for row.
inline void ExpectOrderedEquivalent(const LogicalPtr& plan,
                                    ThreadPool& pool) {
  ExpectSameOrderedRows(RunOneWorker(*plan),
                        ExecutePlan(*plan, pool, StressOptions()));
}

}  // namespace patchindex

#endif  // PATCHINDEX_TESTS_ENGINE_ENGINE_TEST_UTIL_H_
