#include "storage/column.h"

#include <algorithm>
#include <limits>

#include "storage/minmax.h"

namespace patchindex {

void Column::Append(const Value& v) {
  switch (type_) {
    case ColumnType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ColumnType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ColumnType::kString:
      AppendString(v.AsString());
      break;
  }
}

Value Column::Get(RowId row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return Value(GetInt64(row));
    case ColumnType::kDouble:
      return Value(GetDouble(row));
    case ColumnType::kString:
      return Value(GetString(row));
  }
  return Value();
}

void Column::SetInt64(RowId row, std::int64_t v) {
  PIDX_DCHECK(type_ == ColumnType::kInt64 && row < size_);
  const std::size_t b = LocateBlock(row);
  std::int64_t& cell = MutableBlock(b).i64[row - starts_[b]];
  const bool was_bound = cell == mins_[b] || cell == maxs_[b];
  cell = v;
  if (was_bound) {
    RecomputeBounds(b);  // the old value may have been the only bound
  } else {
    mins_[b] = std::min(mins_[b], v);
    maxs_[b] = std::max(maxs_[b], v);
  }
}

void Column::Set(RowId row, const Value& v) {
  PIDX_DCHECK(row < size_);
  switch (type_) {
    case ColumnType::kInt64:
      SetInt64(row, v.AsInt64());
      return;
    case ColumnType::kDouble: {
      const std::size_t b = LocateBlock(row);
      MutableBlock(b).f64[row - starts_[b]] = v.AsDouble();
      return;
    }
    case ColumnType::kString: {
      const std::size_t b = LocateBlock(row);
      MutableBlock(b).str[row - starts_[b]] = v.AsString();
      return;
    }
  }
}

namespace {

/// Removes the cells at the ascending in-block offsets `kill` from
/// `cells`, keeping the order of the survivors.
template <typename T>
void CompactBlock(std::vector<T>& cells, const std::vector<std::size_t>& kill) {
  std::size_t write = kill[0];
  std::size_t next_kill = 0;
  for (std::size_t read = kill[0]; read < cells.size(); ++read) {
    if (next_kill < kill.size() && kill[next_kill] == read) {
      ++next_kill;
      continue;
    }
    cells[write++] = std::move(cells[read]);
  }
  cells.resize(write);
}

}  // namespace

void Column::DeleteRows(const std::vector<RowId>& sorted_rows) {
  if (sorted_rows.empty()) return;
  PIDX_CHECK(sorted_rows.back() < size_);
  // One pass from the first touched block (§4.2.3's shard-local delete):
  // compact each touched block, drop the ones that become empty, and
  // lower every later start offset by the rows deleted before it. Blocks
  // no row falls in are neither copied nor dereferenced.
  const std::size_t n = blocks_.size();
  std::vector<std::size_t> kill;
  std::size_t write = LocateBlock(sorted_rows[0]);
  std::size_t i = 0;
  std::uint64_t removed = 0;
  for (std::size_t b = write; b < n; ++b) {
    const RowId start = starts_[b];
    const std::uint64_t rows = BlockRows(b);
    kill.clear();
    for (; i < sorted_rows.size() && sorted_rows[i] < start + rows; ++i) {
      kill.push_back(static_cast<std::size_t>(sorted_rows[i] - start));
    }
    if (!kill.empty() && kill.size() < rows) {
      Block& block = MutableBlock(b);
      switch (type_) {
        case ColumnType::kInt64:
          CompactBlock(block.i64, kill);
          RecomputeBounds(b);
          break;
        case ColumnType::kDouble:
          CompactBlock(block.f64, kill);
          break;
        case ColumnType::kString:
          CompactBlock(block.str, kill);
          break;
      }
    }
    if (kill.size() < rows) {  // the block survives
      if (write != b) {
        blocks_[write] = std::move(blocks_[b]);
        mins_[write] = mins_[b];
        maxs_[write] = maxs_[b];
      }
      starts_[write] = start - removed;
      ++write;
    }
    removed += kill.size();
  }
  blocks_.resize(write);
  starts_.resize(write);
  mins_.resize(write);
  maxs_.resize(write);
  size_ -= removed;
}

std::size_t Column::LocateBlockAfter(RowId row, std::size_t from) const {
  // Walk a few blocks (the common case after scattered deletes), then
  // binary-search the rest.
  for (std::size_t steps = 0; steps < 4; ++steps, ++from) {
    if (from + 1 >= starts_.size() || starts_[from + 1] > row) return from;
  }
  const auto it = std::upper_bound(starts_.begin() + from, starts_.end(), row);
  return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

Column::Block& Column::MutableBlock(std::size_t b) {
  // use_count() == 1 proves exclusive ownership: other columns only gain
  // a reference by copying this one, which happens under the same writer
  // lock every mutation requires.
  std::shared_ptr<Block>& block = blocks_[b];
  if (block.use_count() > 1) {
    auto copy = std::make_shared<Block>(*block);
    // The tail receives the next appends: give its copy a whole block's
    // room so they do not reallocate it again.
    if (b + 1 == blocks_.size()) ReserveFullBlock(*copy);
    block = std::move(copy);
  }
  return *block;
}

Column::Block& Column::AppendTarget() {
  const bool tail_full =
      blocks_.empty() || BlockRows(blocks_.size() - 1) == kSummaryBlockRows;
  ++size_;
  if (!tail_full) return MutableBlock(blocks_.size() - 1);
  auto block = std::make_shared<Block>();
  ReserveFullBlock(*block);
  starts_.push_back(size_ - 1);
  mins_.push_back(std::numeric_limits<std::int64_t>::max());
  maxs_.push_back(std::numeric_limits<std::int64_t>::min());
  blocks_.push_back(std::move(block));
  return *blocks_.back();
}

void Column::ReserveFullBlock(Block& block) const {
  switch (type_) {
    case ColumnType::kInt64:
      block.i64.reserve(kSummaryBlockRows);
      break;
    case ColumnType::kDouble:
      block.f64.reserve(kSummaryBlockRows);
      break;
    case ColumnType::kString:
      block.str.reserve(kSummaryBlockRows);
      break;
  }
}

void Column::RecomputeBounds(std::size_t b) {
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (const std::int64_t v : blocks_[b]->i64) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  mins_[b] = lo;
  maxs_[b] = hi;
}

std::shared_ptr<const MinMaxIndex> Column::BlockSummary() const {
  PIDX_CHECK(type_ == ColumnType::kInt64);
  return std::make_shared<MinMaxIndex>(starts_, mins_, maxs_, size_);
}

std::uint64_t Column::MemoryUsageBytes() const {
  std::uint64_t total =
      blocks_.capacity() * sizeof(blocks_[0]) +
      (starts_.capacity() + mins_.capacity() + maxs_.capacity()) * 8;
  for (const auto& block : blocks_) {
    total += sizeof(Block) + block->i64.capacity() * sizeof(std::int64_t) +
             block->f64.capacity() * sizeof(double) +
             block->str.capacity() * sizeof(std::string);
    for (const auto& s : block->str) total += s.capacity();
  }
  return total;
}

}  // namespace patchindex
