#ifndef PATCHINDEX_EXEC_MERGE_PROBE_H_
#define PATCHINDEX_EXEC_MERGE_PROBE_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"

namespace patchindex {

/// PatchJoin's merge branch (paper §3.3, Figure 2 right): an equi join on
/// INT64 keys of a stream of fact batches against a materialized X sorted
/// ascending on its key. Every batch of constraint-satisfying fact rows is
/// a run of the NSC's sorted order, so it merges against the key sub-range
/// of X it covers, found by binary search. A batch that arrives unsorted
/// is sorted first: rows appended after the index was built lie beyond its
/// domain and count as non-patches without being part of its order.
///
/// The merge is a two-pointer walk that records matching (X row, fact
/// row) index pairs, X row outer and the fact row's equal-key run inner;
/// each output chunk of at most kBatchSize pairs is then gathered column
/// by column. Output: X columns then fact columns, rowIDs from X. X is
/// only read, so every worker's instance may share one.
class MergeProbeOperator : public Operator {
 public:
  MergeProbeOperator(OperatorPtr fact, const Batch* x, std::size_t x_key,
                     std::size_t fact_key);

  std::vector<ColumnType> OutputTypes() const override {
    return output_types_;
  }
  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;

 private:
  /// Pulls the next non-empty fact batch, sorts it if needed and places
  /// the walk at the start of the X sub-range it covers; false when the
  /// fact input is exhausted.
  bool LoadFactBatch();
  /// Continues the walk over the current fact batch, recording up to
  /// kBatchSize match pairs in x_sel_/fact_sel_.
  void Walk();

  OperatorPtr fact_;
  const Batch* x_;
  std::size_t x_key_;
  std::size_t fact_key_;
  std::vector<ColumnType> output_types_;

  // Walk state over fact_batch_: X cursor and the end of its covered
  // sub-range, the fact cursor (start of the current equal-key run), and,
  // while an X row is crossed with that run, its end and the next fact
  // row to pair.
  Batch fact_batch_;
  bool loaded_ = false;
  std::size_t xi_ = 0;
  std::size_t x_end_ = 0;
  std::size_t fi_ = 0;
  std::size_t run_end_ = 0;
  std::size_t rj_ = 0;
  bool in_run_ = false;
  std::vector<std::size_t> x_sel_;
  std::vector<std::size_t> fact_sel_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_MERGE_PROBE_H_
