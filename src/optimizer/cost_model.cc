#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace patchindex {

double CostModel::Log2(double n) { return std::log2(std::max(2.0, n)); }

double CostModel::DistinctPlain(double n) const {
  return n * (w_.scan + w_.hash_agg);
}

double CostModel::DistinctPatched(double n, double e) const {
  // Both cloned subtrees scan and filter the input; only the patches
  // aggregate.
  const double patches = e * n;
  return 2 * n * (w_.scan + w_.patch_select) + patches * w_.hash_agg +
         n * w_.union_op;
}

double CostModel::SortPlain(double n) const {
  return n * w_.scan + n * Log2(n) * w_.sort_per_cmp;
}

double CostModel::SortPatched(double n, double e) const {
  const double patches = e * n;
  return 2 * n * (w_.scan + w_.patch_select) +
         patches * Log2(patches) * w_.sort_per_cmp + n * w_.merge;
}

double CostModel::JoinPlain(double n_fact, double n_x) const {
  // The optimizer builds on the smaller side.
  const double build = std::min(n_fact, n_x);
  const double probe = std::max(n_fact, n_x);
  return n_fact * w_.scan + build * w_.hash_join_build +
         probe * w_.hash_join_probe;
}

double CostModel::JoinPatched(double n_fact, double n_x, double e) const {
  const double patches = e * n_fact;
  // Both cloned subtrees re-derive the fact side; merge join over the
  // non-patches + X; hash join built on the patches (lowest cardinality)
  // probing the buffered X; X is materialized once for both branches.
  return 2 * n_fact * (w_.scan + w_.patch_select) +
         ((1.0 - e) * n_fact + n_x) * w_.merge_join +
         patches * w_.hash_join_build + n_x * w_.hash_join_probe +
         n_x * w_.reuse_cache + n_fact * w_.union_op;
}

}  // namespace patchindex
