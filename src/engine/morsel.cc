#include "engine/morsel.h"

#include <algorithm>

#include "common/check.h"

namespace patchindex {

void MorselQueue::Chop(const std::vector<MorselPartition>& partitions,
                       std::size_t morsel_rows) {
  PIDX_CHECK(morsel_rows >= 1);
  for (const MorselPartition& part : partitions) {
    for (const RowRange& range : part.ranges) {
      RowId begin = range.begin;
      while (begin < range.end) {
        const RowId end = std::min<RowId>(range.end, begin + morsel_rows);
        Morsel m;
        m.partition = part.partition;
        m.range = {begin, end};
        m.seq = morsels_.size();
        morsels_.push_back(m);
        begin = end;
      }
    }
  }
}

MorselQueue::MorselQueue(const std::vector<RowRange>& base_ranges,
                         std::size_t morsel_rows) {
  MorselPartition part;
  part.partition = 0;
  part.ranges = base_ranges;
  Chop({part}, morsel_rows);
}

MorselQueue::MorselQueue(const std::vector<MorselPartition>& partitions,
                         std::size_t morsel_rows) {
  Chop(partitions, morsel_rows);
}

bool MorselQueue::Next(Morsel* out) {
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= morsels_.size()) return false;
  *out = morsels_[idx];
  return true;
}

}  // namespace patchindex
