// Differential tests of the columnar kernels — the column-vs-constant
// comparison, selection + gather, the permutation gather of
// SortBatchRows, PatchJoin's merge probe and the partitioned hash probe —
// against row-at-a-time references written out in this file. The data
// mixes INT64, DOUBLE (NaN, ±inf, −0.0) and STRING (empty, embedded NUL)
// columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/expression.h"
#include "exec/hash_join.h"
#include "exec/merge_probe.h"
#include "exec/select.h"
#include "exec/sort_merge.h"
#include "exec_test_util.h"

namespace patchindex {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reference three-way compares: NaN above every number and equal to
/// NaN, −0.0 equal to +0.0 (spelled out here, not shared with the code
/// under test).
int RefCompare(double a, double b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return na == nb ? 0 : (na ? 1 : -1);
  return a < b ? -1 : (a > b ? 1 : 0);
}
int RefCompare(std::int64_t a, std::int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}
int RefCompare(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

bool RefHolds(Expr::CmpOp op, int c) {
  switch (op) {
    case Expr::CmpOp::kEq:
      return c == 0;
    case Expr::CmpOp::kNe:
      return c != 0;
    case Expr::CmpOp::kLt:
      return c < 0;
    case Expr::CmpOp::kLe:
      return c <= 0;
    case Expr::CmpOp::kGt:
      return c > 0;
    case Expr::CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

int RefCompareCells(const ColumnVector& a, std::size_t i,
                    const ColumnVector& b, std::size_t j) {
  switch (a.type) {
    case ColumnType::kInt64:
      return RefCompare(a.i64[i], b.i64[j]);
    case ColumnType::kDouble:
      return RefCompare(a.f64[i], b.f64[j]);
    case ColumnType::kString:
      return RefCompare(a.str[i], b.str[j]);
  }
  return 0;
}

/// One cell rendered exactly: doubles by bit pattern (so NaN, −0.0 and
/// +0.0 are told apart), strings length-prefixed (so an embedded NUL
/// counts).
std::string CellKey(const ColumnVector& v, std::size_t i) {
  switch (v.type) {
    case ColumnType::kInt64:
      return "i" + std::to_string(v.i64[i]);
    case ColumnType::kDouble: {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v.f64[i], sizeof(bits));
      return "d" + std::to_string(bits);
    }
    case ColumnType::kString:
      return "s" + std::to_string(v.str[i].size()) + ":" + v.str[i];
  }
  return "";
}

/// Row `i` of `b` (all columns plus the rowID) rendered exactly.
std::string RowKey(const Batch& b, std::size_t i) {
  std::string key = "#" + std::to_string(b.row_ids[i]);
  for (const ColumnVector& c : b.columns) key += "|" + CellKey(c, i);
  return key;
}

std::vector<std::string> RowKeys(const Batch& b) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < b.num_rows(); ++i) keys.push_back(RowKey(b, i));
  return keys;
}

/// Drains `op`, checking every batch stays within kBatchSize rows.
Batch DrainChecked(Operator& op) {
  op.Open();
  Batch all;
  all.Reset(op.OutputTypes());
  Batch in;
  while (op.Next(&in)) {
    EXPECT_GT(in.num_rows(), 0u);
    EXPECT_LE(in.num_rows(), kBatchSize);
    all.AppendRows(in, 0, in.num_rows());
  }
  op.Close();
  return all;
}

/// Emits the given batches as they are (any size, any order).
class BatchListSource : public Operator {
 public:
  explicit BatchListSource(std::vector<Batch> batches)
      : batches_(std::move(batches)) {}
  std::vector<ColumnType> OutputTypes() const override {
    return batches_.at(0).types();
  }
  void Open() override { pos_ = 0; }
  bool Next(Batch* out) override {
    if (pos_ >= batches_.size()) {
      out->Reset(OutputTypes());
      return false;
    }
    *out = batches_[pos_++];
    return true;
  }

 private:
  std::vector<Batch> batches_;
  std::size_t pos_ = 0;
};

const std::vector<double> kSpecialDoubles = {kNan, -kInf, kInf, -0.0,
                                             0.0,  1.5,   -2.5, 1e300};

std::string StringCell(std::uint64_t r) {
  switch (r % 5) {
    case 0:
      return "";
    case 1:
      return std::string("a\0b", 3);
    case 2:
      return std::string("a\0a", 3);
    case 3:
      return "a";
    default:
      return "b" + std::to_string(r % 7);
  }
}

/// (key INT64, d DOUBLE, s STRING) with `n` rows and rowIDs 0..n-1; keys
/// ascend in 3-row runs, so range predicates pass whole batches, none, or
/// a part.
Batch MixedBatch(std::size_t n, Rng& rng) {
  Batch b;
  b.Reset({ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString});
  for (std::size_t i = 0; i < n; ++i) {
    b.columns[0].i64.push_back(static_cast<std::int64_t>(i / 3));
    b.columns[1].f64.push_back(
        kSpecialDoubles[rng.Uniform(0, kSpecialDoubles.size() - 1)]);
    b.columns[2].str.push_back(StringCell(rng.Uniform(0, 100)));
    b.row_ids.push_back(i);
  }
  return b;
}

ExprPtr ConstOf(const Value& v) {
  switch (v.type()) {
    case ColumnType::kInt64:
      return ConstInt(v.AsInt64());
    case ColumnType::kDouble:
      return ConstDouble(v.AsDouble());
    case ColumnType::kString:
      return ConstString(v.AsString());
  }
  return nullptr;
}

/// Row-at-a-time reference for `#col op c` (or `c op #col` when
/// `const_left`).
Batch RefSelect(const Batch& in, std::size_t col, Expr::CmpOp op,
                const Value& c, bool const_left) {
  ColumnVector constant(c.type());
  constant.AppendValue(c);
  Batch out;
  out.Reset(in.types());
  for (std::size_t i = 0; i < in.num_rows(); ++i) {
    const ColumnVector& cells = in.columns[col];
    const int cmp = const_left ? RefCompareCells(constant, 0, cells, i)
                               : RefCompareCells(cells, i, constant, 0);
    if (RefHolds(op, cmp)) out.AppendRowFrom(in, i);
  }
  return out;
}

const std::vector<Expr::CmpOp> kOps = {Expr::CmpOp::kEq, Expr::CmpOp::kNe,
                                       Expr::CmpOp::kLt, Expr::CmpOp::kLe,
                                       Expr::CmpOp::kGt, Expr::CmpOp::kGe};

TEST(KernelTest, SelectAgainstConstantsMatchesRowAtATimeReference) {
  Rng rng(7);
  const Batch data = MixedBatch(3 * kBatchSize + 17, rng);
  std::vector<std::pair<std::size_t, Value>> cases;
  // INT64 keys run 0..1029: everything, nothing, and a part passes.
  for (std::int64_t k : {-1, 0, 341, 342, 1000, 1029, 5000}) {
    cases.emplace_back(0, Value(k));
  }
  for (double d : kSpecialDoubles) cases.emplace_back(1, Value(d));
  for (std::uint64_t r : {0, 1, 2, 3, 4}) {
    cases.emplace_back(2, Value(StringCell(r)));
  }
  cases.emplace_back(2, Value(std::string("zzz")));
  for (const auto& [col, c] : cases) {
    for (Expr::CmpOp op : kOps) {
      for (bool const_left : {false, true}) {
        ExprPtr pred = const_left ? Cmp(op, ConstOf(c), Col(col))
                                  : Cmp(op, Col(col), ConstOf(c));
        SelectOperator select(Source(data), pred);
        const Batch got = DrainChecked(select);
        const Batch want = RefSelect(data, col, op, c, const_left);
        EXPECT_EQ(RowKeys(got), RowKeys(want)) << pred->ToString();
      }
    }
  }
}

TEST(KernelTest, ComparisonShapesOutsideTheKernelUseTheSameOrder) {
  Rng rng(8);
  Batch data = MixedBatch(kBatchSize + 100, rng);
  // A second DOUBLE column to compare the first against.
  data.columns.emplace_back(ColumnType::kDouble);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    data.columns[3].f64.push_back(
        kSpecialDoubles[rng.Uniform(0, kSpecialDoubles.size() - 1)]);
  }
  for (Expr::CmpOp op : kOps) {
    // Column against column.
    SelectOperator select(Source(data), Cmp(op, Col(1), Col(3)));
    const Batch got = DrainChecked(select);
    Batch want;
    want.Reset(data.types());
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      if (RefHolds(op, RefCompare(data.columns[1].f64[i],
                                  data.columns[3].f64[i]))) {
        want.AppendRowFrom(data, i);
      }
    }
    EXPECT_EQ(RowKeys(got), RowKeys(want));
    // An arithmetic operand against a constant: `1000 > key + 0`.
    SelectOperator arith(Source(data),
                         Cmp(op, ConstInt(1000), Add(Col(0), ConstInt(0))));
    EXPECT_EQ(RowKeys(DrainChecked(arith)),
              RowKeys(RefSelect(data, 0, op, Value(std::int64_t{1000}),
                                /*const_left=*/true)));
  }
}

TEST(KernelTest, SelectHandsOnAWholePassingBatch) {
  const Batch data = MakeI64Batch({1, 2, 3});
  SelectOperator select(Source(data), Gt(ConstInt(1000), Col(0)));
  EXPECT_EQ(RowKeys(DrainChecked(select)), RowKeys(data));
  SelectOperator none(Source(data), Lt(ConstInt(1000), Col(0)));
  EXPECT_EQ(DrainChecked(none).num_rows(), 0u);
}

/// Row-at-a-time reference sort: a stable sort of row indices under the
/// reference compare, then a row-by-row copy.
Batch RefSort(const Batch& in, const std::vector<SortKeySpec>& keys,
              std::size_t limit) {
  std::vector<std::size_t> order(in.num_rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (const SortKeySpec& k : keys) {
                       const int c = RefCompareCells(in.columns[k.column], a,
                                                     in.columns[k.column], b);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  if (limit > 0 && limit < order.size()) order.resize(limit);
  Batch out;
  out.Reset(in.types());
  for (std::size_t i : order) out.AppendRowFrom(in, i);
  return out;
}

TEST(KernelTest, SortBatchRowsMatchesRowAtATimeReference) {
  Rng rng(9);
  const Batch data = MixedBatch(2 * kBatchSize + 5, rng);
  // Every key list ends in a unique column (3, descending), so the sort
  // order is fully defined and the comparison is exact.
  Batch keyed = data;
  keyed.columns.emplace_back(ColumnType::kInt64);
  for (std::size_t i = 0; i < keyed.num_rows(); ++i) {
    keyed.columns[3].i64.push_back(
        static_cast<std::int64_t>(keyed.num_rows() - i));
  }
  const std::vector<std::vector<SortKeySpec>> key_lists = {
      {{1, true}, {3, true}},
      {{1, false}, {3, true}},
      {{2, true}, {1, false}, {3, false}},
      {{0, false}, {2, true}, {3, true}},
  };
  for (const auto& keys : key_lists) {
    for (std::size_t limit : {std::size_t{0}, std::size_t{1},
                              std::size_t{100}, kBatchSize + 1}) {
      Batch got = keyed;
      SortBatchRows(&got, keys, limit);
      EXPECT_EQ(RowKeys(got), RowKeys(RefSort(keyed, keys, limit)))
          << "limit " << limit;
    }
  }
}

/// (key, d, s) batch from keys, with the given rowIDs base.
Batch FactBatch(const std::vector<std::int64_t>& keys, RowId base,
                Rng& rng) {
  Batch b;
  b.Reset({ColumnType::kInt64, ColumnType::kString, ColumnType::kDouble});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    b.columns[0].i64.push_back(keys[i]);
    b.columns[1].str.push_back(StringCell(rng.Uniform(0, 100)));
    b.columns[2].f64.push_back(
        kSpecialDoubles[rng.Uniform(0, kSpecialDoubles.size() - 1)]);
    b.row_ids.push_back(base + i);
  }
  return b;
}

/// Nested-loop reference of the merge probe over one (sorted) fact batch:
/// X row outer, matching fact rows inner, in fact-batch order.
void RefMergeProbe(const Batch& x, const Batch& fact, Batch* out) {
  for (std::size_t i = 0; i < x.num_rows(); ++i) {
    for (std::size_t j = 0; j < fact.num_rows(); ++j) {
      if (x.columns[0].i64[i] != fact.columns[0].i64[j]) continue;
      for (std::size_t c = 0; c < x.columns.size(); ++c) {
        out->columns[c].AppendFrom(x.columns[c], i);
      }
      for (std::size_t c = 0; c < fact.columns.size(); ++c) {
        out->columns[x.columns.size() + c].AppendFrom(fact.columns[c], j);
      }
      out->row_ids.push_back(x.row_ids[i]);
    }
  }
}

TEST(KernelTest, MergeProbeMatchesNestedLoopReference) {
  Rng rng(10);
  // X: sorted keys 0..399 with a 1100-row run of key 100 (crossing
  // kBatchSize) and a few absent keys.
  std::vector<std::int64_t> x_keys;
  for (std::int64_t k = 0; k < 400; ++k) {
    if (k % 17 == 5) continue;
    const std::size_t reps = k == 100 ? 1100 : (k % 3 == 0 ? 2 : 1);
    x_keys.insert(x_keys.end(), reps, k);
  }
  Rng x_rng(11);
  Batch xb;
  xb.Reset({ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString});
  for (std::size_t i = 0; i < x_keys.size(); ++i) {
    xb.columns[0].i64.push_back(x_keys[i]);
    xb.columns[1].f64.push_back(
        kSpecialDoubles[x_rng.Uniform(0, kSpecialDoubles.size() - 1)]);
    xb.columns[2].str.push_back(StringCell(x_rng.Uniform(0, 100)));
    xb.row_ids.push_back(1000 + i);
  }

  // Fact batches: sorted runs (one of 3000 rows whose key-201 run crosses
  // kBatchSize, against a 2-row X run), one batch entirely outside X's
  // keys, and an unsorted one holding keys beyond the index domain.
  std::vector<std::vector<std::int64_t>> fact_keys;
  {
    std::vector<std::int64_t> big;
    for (std::int64_t k = 90; k < 100; ++k) big.push_back(k);
    big.insert(big.end(), 3, 100);
    big.insert(big.end(), 1100, 201);
    while (big.size() < 3000) {
      big.push_back(150 + static_cast<std::int64_t>(big.size() % 50));
    }
    std::sort(big.begin(), big.end());
    fact_keys.push_back(big);
  }
  fact_keys.push_back({100, 100, 100});  // the run continues across batches
  fact_keys.push_back({500, 501, 502});  // beyond X
  {
    std::vector<std::int64_t> sorted;
    for (int i = 0; i < 700; ++i) {
      sorted.push_back(static_cast<std::int64_t>(rng.Uniform(150, 399)));
    }
    std::sort(sorted.begin(), sorted.end());
    fact_keys.push_back(sorted);
  }
  fact_keys.push_back({7, 300, 3, 100, 4000, 2, 3, 300});  // unsorted

  std::vector<Batch> fact;
  RowId base = 0;
  for (const auto& keys : fact_keys) {
    fact.push_back(FactBatch(keys, base, rng));
    base += keys.size();
  }

  MergeProbeOperator probe(std::make_unique<BatchListSource>(fact), &xb, 0, 0);
  const Batch got = DrainChecked(probe);

  Batch want;
  want.Reset(probe.OutputTypes());
  std::vector<std::string> want_unsorted_part;
  for (const Batch& f : fact) {
    const auto& keys = f.columns[0].i64;
    if (std::is_sorted(keys.begin(), keys.end())) {
      RefMergeProbe(xb, f, &want);
    } else {
      // Order among equal keys of a batch that had to be sorted is not
      // defined; compare that batch's part as a multiset.
      Batch part;
      part.Reset(probe.OutputTypes());
      RefMergeProbe(xb, f, &part);
      want_unsorted_part = RowKeys(part);
    }
  }
  ASSERT_EQ(got.num_rows(), want.num_rows() + want_unsorted_part.size());
  std::vector<std::string> got_keys = RowKeys(got);
  std::vector<std::string> got_tail(
      got_keys.begin() + static_cast<std::ptrdiff_t>(want.num_rows()),
      got_keys.end());
  got_keys.resize(want.num_rows());
  EXPECT_EQ(got_keys, RowKeys(want));
  std::sort(got_tail.begin(), got_tail.end());
  std::sort(want_unsorted_part.begin(), want_unsorted_part.end());
  EXPECT_EQ(got_tail, want_unsorted_part);
  EXPECT_GT(want_unsorted_part.size(), 0u);
}

/// Builds partitioned hash tables over `build` keyed on column 0.
PartitionedHashTables BuildTables(const Batch& build, std::size_t mask) {
  auto parts = std::make_shared<std::vector<JoinHashTable>>(mask + 1);
  for (JoinHashTable& t : *parts) t.Reset(build.types());
  for (std::size_t i = 0; i < build.num_rows(); ++i) {
    const std::int64_t key = build.columns[0].i64[i];
    (*parts)[JoinKeyPartition(key, mask)].AddRow(build, i, key,
                                                 /*unique_hint=*/i % 2 == 0);
  }
  PartitionedHashTables out;
  out.parts = std::move(parts);
  out.mask = mask;
  out.types = build.types();
  return out;
}

TEST(KernelTest, PartitionProbeMatchesNestedLoopReference) {
  Rng rng(12);
  std::vector<std::int64_t> build_keys, probe_keys;
  for (int i = 0; i < 600; ++i) {
    build_keys.push_back(static_cast<std::int64_t>(rng.Uniform(0, 200)));
  }
  // Key 7 matches 1100 probe rows, so one probe row's pairs cross
  // kBatchSize when key 7 is also duplicated on the build side.
  build_keys.insert(build_keys.end(), 3, 7);
  for (int i = 0; i < 2500; ++i) {
    probe_keys.push_back(static_cast<std::int64_t>(rng.Uniform(0, 260)));
  }
  probe_keys.insert(probe_keys.begin() + 100, 1100, 7);
  const Batch build = FactBatch(build_keys, 50'000, rng);
  const Batch probe_data = FactBatch(probe_keys, 0, rng);

  for (std::size_t mask : {std::size_t{0}, std::size_t{3}}) {
    const PartitionedHashTables tables = BuildTables(build, mask);
    for (bool build_is_left : {false, true}) {
      PartitionProbeOperator probe(Source(probe_data), &tables, 0,
                                   build_is_left);
      const Batch got = DrainChecked(probe);
      // Reference: every (probe row, build row) with equal keys, probe
      // rows in order.
      Batch want;
      want.Reset(probe.OutputTypes());
      const std::size_t bw = build.columns.size();
      const std::size_t pw = probe_data.columns.size();
      for (std::size_t i = 0; i < probe_data.num_rows(); ++i) {
        for (std::size_t j = 0; j < build.num_rows(); ++j) {
          if (probe_data.columns[0].i64[i] != build.columns[0].i64[j]) {
            continue;
          }
          for (std::size_t c = 0; c < bw; ++c) {
            want.columns[(build_is_left ? 0 : pw) + c].AppendFrom(
                build.columns[c], j);
          }
          for (std::size_t c = 0; c < pw; ++c) {
            want.columns[(build_is_left ? bw : 0) + c].AppendFrom(
                probe_data.columns[c], i);
          }
          want.row_ids.push_back(probe_data.row_ids[i]);
        }
      }
      // Probe order is kept: output rowIDs (the probe's, ascending in the
      // input) never decrease. Matches of one probe row may come in any
      // order, so the rows are compared as a multiset.
      EXPECT_TRUE(std::is_sorted(got.row_ids.begin(), got.row_ids.end()));
      std::vector<std::string> got_keys = RowKeys(got);
      std::vector<std::string> want_keys = RowKeys(want);
      std::sort(got_keys.begin(), got_keys.end());
      std::sort(want_keys.begin(), want_keys.end());
      EXPECT_EQ(got_keys, want_keys)
          << "mask " << mask << " build_is_left " << build_is_left;
    }
  }
}

TEST(KernelTest, HashJoinOperatorMatchesNestedLoopReference) {
  Rng rng(13);
  std::vector<std::int64_t> build_keys, probe_keys;
  for (int i = 0; i < 300; ++i) {
    build_keys.push_back(static_cast<std::int64_t>(rng.Uniform(0, 90)));
    probe_keys.push_back(static_cast<std::int64_t>(rng.Uniform(0, 120)));
  }
  // One probe row of key 5 matches more than kBatchSize build rows.
  build_keys.insert(build_keys.end(), kBatchSize + 100, 5);
  probe_keys.insert(probe_keys.end(), 40, 5);
  const Batch build = FactBatch(build_keys, 9'000, rng);
  const Batch probe = FactBatch(probe_keys, 0, rng);
  HashJoinOperator join(Source(build), Source(probe), 0, 0);
  const Batch got = DrainChecked(join);
  Batch want;
  want.Reset(join.OutputTypes());
  for (std::size_t i = 0; i < probe.num_rows(); ++i) {
    for (std::size_t j = 0; j < build.num_rows(); ++j) {
      if (probe.columns[0].i64[i] != build.columns[0].i64[j]) continue;
      for (std::size_t c = 0; c < 3; ++c) {
        want.columns[c].AppendFrom(probe.columns[c], i);
        want.columns[3 + c].AppendFrom(build.columns[c], j);
      }
      want.row_ids.push_back(probe.row_ids[i]);
    }
  }
  EXPECT_TRUE(std::is_sorted(got.row_ids.begin(), got.row_ids.end()));
  std::vector<std::string> got_keys = RowKeys(got);
  std::vector<std::string> want_keys = RowKeys(want);
  std::sort(got_keys.begin(), got_keys.end());
  std::sort(want_keys.begin(), want_keys.end());
  EXPECT_EQ(got_keys, want_keys);
}

}  // namespace
}  // namespace patchindex
