#ifndef PATCHINDEX_OBS_PROFILED_OPERATOR_H_
#define PATCHINDEX_OBS_PROFILED_OPERATOR_H_

#include <chrono>

#include "exec/operator.h"
#include "obs/profile.h"

namespace patchindex::obs {

/// Wraps an operator to measure it: rows out, inclusive wall time (the
/// wrapped Next() call, which includes the operator's inputs), and the
/// number of worker instances. Counts are buffered in plain locals and
/// flushed to the shared NodeStats when the instance is destroyed — a
/// worker may re-open its pipeline once per morsel — so profiling adds
/// two clock reads per batch, not per row, and no shared-cache traffic
/// until the worker finishes.
class ProfiledOperator : public Operator {
 public:
  /// When `count_rows` is false only time/workers are recorded — used for
  /// per-worker aggregate/sort instances whose partial row counts depend
  /// on morsel scheduling (the coordinator sets the final merged count).
  ProfiledOperator(OperatorPtr child, NodeStats* stats,
                   bool count_rows = true)
      : child_(std::move(child)), stats_(stats), count_rows_(count_rows) {}

  ~ProfiledOperator() override {
    if (local_rows_ > 0) {
      stats_->rows.fetch_add(local_rows_, std::memory_order_relaxed);
    }
    stats_->AddWorkerTime(local_ns_);
  }

  std::vector<ColumnType> OutputTypes() const override {
    return child_->OutputTypes();
  }

  void Open() override {
    if (!opened_) stats_->workers.fetch_add(1, std::memory_order_relaxed);
    opened_ = true;
    const auto start = std::chrono::steady_clock::now();
    child_->Open();
    local_ns_ += Elapsed(start);
  }

  bool Next(Batch* out) override {
    const auto start = std::chrono::steady_clock::now();
    const bool more = child_->Next(out);
    local_ns_ += Elapsed(start);
    if (more && count_rows_) local_rows_ += out->num_rows();
    return more;
  }

  void Close() override {
    const auto start = std::chrono::steady_clock::now();
    child_->Close();
    local_ns_ += Elapsed(start);
  }

 private:
  static std::uint64_t Elapsed(
      std::chrono::steady_clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  OperatorPtr child_;
  NodeStats* stats_;
  bool count_rows_;
  std::uint64_t local_rows_ = 0;
  std::uint64_t local_ns_ = 0;
  bool opened_ = false;
};

}  // namespace patchindex::obs

#endif  // PATCHINDEX_OBS_PROFILED_OPERATOR_H_
