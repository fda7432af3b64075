#include "exec/sort_merge.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace patchindex {

namespace {

/// Three-way compare of one cell across two column vectors of one type
/// (DOUBLE by CompareDoubles' total order, so NaN cells sort last
/// ascending and the comparator stays a strict weak order).
int CompareCells(const ColumnVector& ca, std::size_t ra,
                 const ColumnVector& cb, std::size_t rb) {
  PIDX_DCHECK(ca.type == cb.type);
  switch (ca.type) {
    case ColumnType::kInt64:
      return ca.i64[ra] < cb.i64[rb] ? -1 : (ca.i64[ra] > cb.i64[rb]);
    case ColumnType::kDouble:
      return CompareDoubles(ca.f64[ra], cb.f64[rb]);
    case ColumnType::kString: {
      const int r = ca.str[ra].compare(cb.str[rb]);
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace

bool SortedBatchRowLess(const Batch& a, std::size_t ra, const Batch& b,
                        std::size_t rb, const std::vector<SortKeySpec>& keys) {
  for (const SortKeySpec& k : keys) {
    const int c = CompareCells(a.columns[k.column], ra, b.columns[k.column], rb);
    if (c != 0) return k.ascending ? c < 0 : c > 0;
  }
  return false;
}

std::vector<std::size_t> SortedPermutation(
    const Batch& data, const std::vector<SortKeySpec>& keys,
    std::size_t limit) {
  PIDX_CHECK(!keys.empty());
  std::vector<std::size_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), 0);
  const auto less = [&data, &keys](std::size_t a, std::size_t b) {
    return SortedBatchRowLess(data, a, data, b, keys);
  };
  if (limit > 0 && limit < order.size()) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(limit),
                      order.end(), less);
    order.resize(limit);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  return order;
}

void SortBatchRows(Batch* data, const std::vector<SortKeySpec>& keys,
                   std::size_t limit) {
  const std::vector<std::size_t> order = SortedPermutation(*data, keys, limit);
  Batch sorted;
  sorted.Reset(data->types());
  sorted.AppendGather(*data, order);
  *data = std::move(sorted);
}

Batch MergeSortedBatches(std::vector<Batch> parts,
                         const std::vector<SortKeySpec>& keys,
                         std::size_t limit) {
  PIDX_CHECK(!parts.empty());
  Batch out;
  out.Reset(parts[0].types());

  std::vector<std::size_t> pos(parts.size(), 0);
  // Min-heap of part indices ordered by each part's current row. pos[i]
  // only changes while i is popped off the heap, so the comparator stays
  // consistent across sift operations.
  const auto greater = [&parts, &pos, &keys](std::size_t x, std::size_t y) {
    return SortedBatchRowLess(parts[y], pos[y], parts[x], pos[x], keys);
  };
  std::vector<std::size_t> heap;
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i].num_rows();
    if (parts[i].num_rows() > 0) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), greater);
  out.row_ids.reserve(limit > 0 ? std::min(limit, total) : total);

  while (!heap.empty() && (limit == 0 || out.num_rows() < limit)) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const std::size_t i = heap.back();
    heap.pop_back();
    // Take the popped part's rows up to the next-smallest head in one
    // copy: a dominant run (PatchSort's constraint-satisfying rows)
    // merges in bulk instead of row by row through the heap.
    std::size_t end = pos[i] + 1;
    while (end < parts[i].num_rows() &&
           (heap.empty() || !SortedBatchRowLess(parts[heap.front()],
                                                pos[heap.front()], parts[i],
                                                end, keys))) {
      ++end;
    }
    if (limit > 0) end = std::min(end, pos[i] + (limit - out.num_rows()));
    out.AppendRows(parts[i], pos[i], end);
    pos[i] = end;
    if (pos[i] < parts[i].num_rows()) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return out;
}

}  // namespace patchindex
