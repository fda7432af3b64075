#ifndef PATCHINDEX_EXEC_OPERATOR_H_
#define PATCHINDEX_EXEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "exec/batch.h"

namespace patchindex {

/// Pull-based vectorized operator (Volcano iteration over kBatchSize
/// tuple vectors, as in X100/Vectorwise). Lifecycle: Open() once, Next()
/// until it returns false, Close() once.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Types of the produced columns.
  virtual std::vector<ColumnType> OutputTypes() const = 0;

  virtual void Open() = 0;

  /// Produces the next batch. Returns false when exhausted (out is left
  /// empty in that case). `out` is reset by the callee.
  virtual bool Next(Batch* out) = 0;

  virtual void Close() {}
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` (Open/Next*/Close) into a single materialized batch.
/// Convenience for tests, update-handling queries and benchmarks.
Batch Collect(Operator& op);

/// Drains `op` counting rows without materializing them.
std::uint64_t CountRows(Operator& op);

/// Emits a pre-materialized batch in kBatchSize chunks; used to feed
/// operator inputs in tests and to replay buffered intermediates.
class InMemorySource : public Operator {
 public:
  explicit InMemorySource(Batch data) : data_(std::move(data)) {}

  std::vector<ColumnType> OutputTypes() const override {
    return data_.types();
  }

  void Open() override { pos_ = 0; }

  bool Next(Batch* out) override;

 private:
  Batch data_;
  std::size_t pos_ = 0;
};

/// Bag union by concatenation (no ordering guarantees): drains children in
/// order, opening each only after the previous one is exhausted. Every
/// child must produce the same column types. Combines the two branches of
/// the PatchIndex join in each worker (paper §3.3, Figure 2).
class UnionOperator : public Operator {
 public:
  explicit UnionOperator(std::vector<OperatorPtr> children);

  std::vector<ColumnType> OutputTypes() const override {
    return children_[0]->OutputTypes();
  }
  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;

 private:
  std::vector<OperatorPtr> children_;
  std::size_t current_ = 0;
  bool opened_ = false;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_OPERATOR_H_
