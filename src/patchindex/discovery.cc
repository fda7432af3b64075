#include "patchindex/discovery.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace patchindex {

namespace {

/// Calls fn(row, value) for every row of an INT64 column, in row order,
/// walking the column's block segments.
template <typename Fn>
void ForEachValue(const Column& column, Fn&& fn) {
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  RowId row = 0;
  column.ForEachSpan<std::int64_t>(
      0, column.size(), [&](const std::int64_t* cells, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) fn(row++, cells[i]);
      });
}

/// Patience sorting over `n` values that `for_each(fn)` feeds to fn in
/// index order; non-decreasing runs are allowed, so ties extend the
/// subsequence (upper_bound). Returns the kept indices, ascending.
template <typename ForEach>
std::vector<std::size_t> LongestSortedRun(std::size_t n, bool ascending,
                                          ForEach&& for_each) {
  std::vector<std::size_t> pile_tail_idx;  // index of smallest tail per length
  std::vector<std::int64_t> pile_tail_val;
  std::vector<std::size_t> prev(n, static_cast<std::size_t>(-1));
  std::size_t i = 0;
  for_each([&](std::int64_t value) {
    const std::int64_t v = ascending ? value : -value;
    const auto it =
        std::upper_bound(pile_tail_val.begin(), pile_tail_val.end(), v);
    const std::size_t pos =
        static_cast<std::size_t>(it - pile_tail_val.begin());
    if (pos > 0) prev[i] = pile_tail_idx[pos - 1];
    if (pos == pile_tail_val.size()) {
      pile_tail_val.push_back(v);
      pile_tail_idx.push_back(i);
    } else {
      pile_tail_val[pos] = v;
      pile_tail_idx[pos] = i;
    }
    ++i;
  });
  std::vector<std::size_t> result;
  if (pile_tail_idx.empty()) return result;
  result.reserve(pile_tail_idx.size());
  for (std::size_t k = pile_tail_idx.back(); k != static_cast<std::size_t>(-1);
       k = prev[k]) {
    result.push_back(k);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace

std::vector<RowId> DiscoverNucPatches(const Column& column) {
  // First pass: count occurrences. Second pass: every row whose value is
  // duplicated is a patch (all occurrences, not all-but-one — see header).
  std::unordered_map<std::int64_t, std::uint32_t> counts;
  counts.reserve(column.size());
  ForEachValue(column, [&](RowId, std::int64_t v) { ++counts[v]; });
  std::vector<RowId> patches;
  ForEachValue(column, [&](RowId row, std::int64_t v) {
    if (counts[v] > 1) patches.push_back(row);
  });
  return patches;  // ascending by construction
}

NccDiscovery DiscoverNccPatches(const Column& column) {
  NccDiscovery out;
  if (column.size() == 0) return out;
  std::unordered_map<std::int64_t, std::uint64_t> counts;
  counts.reserve(column.size());
  ForEachValue(column, [&](RowId, std::int64_t v) { ++counts[v]; });
  std::uint64_t best_count = 0;
  for (const auto& [v, c] : counts) {
    if (c > best_count || (c == best_count && v < out.constant)) {
      out.constant = v;
      best_count = c;
    }
  }
  out.has_constant = true;
  out.patches.reserve(column.size() - best_count);
  ForEachValue(column, [&](RowId row, std::int64_t v) {
    if (v != out.constant) out.patches.push_back(row);
  });
  return out;
}

std::vector<std::size_t> LongestSortedSubsequence(
    const std::vector<std::int64_t>& values, bool ascending) {
  return LongestSortedRun(values.size(), ascending, [&](auto&& fn) {
    for (const std::int64_t v : values) fn(v);
  });
}

NscDiscovery DiscoverNscPatches(const Column& column, bool ascending) {
  NscDiscovery out;
  if (column.size() == 0) return out;
  const std::vector<std::size_t> keep =
      LongestSortedRun(column.size(), ascending, [&](auto&& fn) {
        ForEachValue(column, [&](RowId, std::int64_t v) { fn(v); });
      });
  out.tail_value = column.GetInt64(keep.back());
  out.has_tail = true;
  out.patches.reserve(column.size() - keep.size());
  std::size_t ki = 0;
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (ki < keep.size() && keep[ki] == i) {
      ++ki;
    } else {
      out.patches.push_back(i);
    }
  }
  return out;
}

}  // namespace patchindex
