#ifndef PATCHINDEX_BITMAP_SHARDED_BITMAP_H_
#define PATCHINDEX_BITMAP_SHARDED_BITMAP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "bitmap/shift.h"
#include "common/bits.h"
#include "common/check.h"

namespace patchindex {

class ThreadPool;

/// Tuning knobs for the sharded bitmap (paper §4, Fig. 6).
struct ShardedBitmapOptions {
  /// Size of one virtual shard in bits. Must be a power of two and a
  /// multiple of 64. The paper's evaluation locates the runtime optimum at
  /// 2^14 bits, which is our default (memory overhead 64/2^14 = 0.39%).
  std::uint64_t shard_size_bits = std::uint64_t{1} << 14;

  /// Use the AVX2 cross-element shift kernel when the CPU supports it.
  bool vectorized = true;

  /// Run bulk deletes shard-parallel on this pool; serially when null.
  /// Must not be a pool whose task performs the delete (ParallelFor from
  /// inside one of its own tasks could wait on itself).
  ThreadPool* pool = nullptr;

  /// When utilization (live bits / physical capacity) drops below this
  /// threshold, Condense() is triggered automatically at the end of a bulk
  /// delete. 0 disables auto-condensing (the paper's experiments run with
  /// condensing disabled for comparability).
  double auto_condense_threshold = 0.0;
};

/// The paper's update-conscious bitmap (§4): an ordinary bitmap virtually
/// divided into shards. Each shard carries a start value (the logical index
/// of its first bit, a la UpBit's fence pointers). Deleting a bit shifts
/// only within one shard and decrements the start values of subsequent
/// shards, so deletes are O(shard) + O(#shards) instead of O(size).
///
/// Physical layout: shard s owns words [s*W, (s+1)*W) where W =
/// shard_size_bits/64. A shard's *used* bit count starts at shard_size_bits
/// and shrinks by one per delete; the vacated tail bits ("lost bits",
/// §4.2.4) are kept zero. Condense() re-packs shards to reclaim them.
class ShardedBitmap {
 public:
  explicit ShardedBitmap(std::uint64_t num_bits,
                         ShardedBitmapOptions options = {});

  /// Logical number of bits currently addressable.
  std::uint64_t size() const { return num_bits_; }
  std::uint64_t num_shards() const { return start_.size(); }
  const ShardedBitmapOptions& options() const { return options_; }

  bool Get(std::uint64_t pos) const {
    const std::uint64_t phys = PhysicalPos(pos);
    return (words_[bits::WordIndex(phys)] >> bits::BitOffset(phys)) & 1;
  }

  void Set(std::uint64_t pos) {
    const std::uint64_t phys = PhysicalPos(pos);
    words_[bits::WordIndex(phys)] |= std::uint64_t{1} << bits::BitOffset(phys);
  }

  void Unset(std::uint64_t pos) {
    const std::uint64_t phys = PhysicalPos(pos);
    words_[bits::WordIndex(phys)] &=
        ~(std::uint64_t{1} << bits::BitOffset(phys));
  }

  /// Removes the bit at logical position `pos` (paper §4.2.2): shifts the
  /// remainder of the containing shard towards the hole and decrements all
  /// subsequent start values.
  void Delete(std::uint64_t pos);

  /// Removes all bits at `positions` (sorted ascending, unique, pre-delete
  /// logical positions). Shard-local shifts run in parallel on
  /// `options.pool` when set; start values are adapted in one traversal
  /// with a running deletion count (§4.2.3).
  void BulkDelete(const std::vector<std::uint64_t>& positions);

  /// Appends `count` zero bits at the logical end.
  void Append(std::uint64_t count);

  /// Re-packs all shards so every shard (except possibly the last) is fully
  /// used again, reclaiming bits lost to deletes (§4.2.4).
  void Condense();

  /// Live bits / physical capacity; deletes lower it, Condense resets it.
  double Utilization() const {
    const std::uint64_t cap = CapacityBits();
    return cap == 0 ? 1.0 : static_cast<double>(num_bits_) / cap;
  }

  std::uint64_t CountSetBits() const {
    return bits::PopCount(words_.data(), words_.size());
  }

  /// Invokes fn(logical_position) for every set bit, ascending.
  void ForEachSetBit(const std::function<void(std::uint64_t)>& fn) const;

  /// Invokes fn(logical_position) for every set bit in [begin, end),
  /// ascending.
  void ForEachSetBitInRange(
      std::uint64_t begin, std::uint64_t end,
      const std::function<void(std::uint64_t)>& fn) const;

  /// Collects all set-bit positions (ascending).
  std::vector<std::uint64_t> SetBitPositions() const;

  std::uint64_t MemoryUsageBytes() const {
    return words_.capacity() * 8 + start_.capacity() * 8;
  }

  /// Additional memory of sharding relative to an ordinary bitmap of the
  /// same capacity, in percent: 64 / shard_size_bits * 100 (paper §6.1).
  double ShardingOverheadPercent() const {
    return 64.0 / static_cast<double>(options_.shard_size_bits) * 100.0;
  }

  /// Fast sequential reader: amortizes shard lookup across consecutive
  /// positions, used by the PatchIndex scan.
  class SequentialReader {
   public:
    explicit SequentialReader(const ShardedBitmap& bm) : bm_(bm) {}

    /// Returns the bit at `pos`. Positions must be non-decreasing across
    /// calls.
    bool Get(std::uint64_t pos) {
      while (shard_ + 1 < bm_.start_.size() && bm_.start_[shard_ + 1] <= pos) {
        ++shard_;
      }
      const std::uint64_t phys =
          shard_ * bm_.shard_bits_ + (pos - bm_.start_[shard_]);
      return (bm_.words_[bits::WordIndex(phys)] >> bits::BitOffset(phys)) & 1;
    }

   private:
    const ShardedBitmap& bm_;
    std::uint64_t shard_ = 0;
  };

 private:
  friend class SequentialReader;

  std::uint64_t CapacityBits() const { return num_shards() * shard_bits_; }

  /// Number of live bits in shard s.
  std::uint64_t UsedBits(std::uint64_t s) const {
    const std::uint64_t next =
        (s + 1 < start_.size()) ? start_[s + 1] : num_bits_;
    return next - start_[s];
  }

  /// Shard containing logical position `pos`: start at pos/shard_size (a
  /// lower bound, since start values only ever decrease) and walk forward
  /// comparing against upcoming start values (paper §4.2.1).
  std::uint64_t LocateShard(std::uint64_t pos) const {
    PIDX_DCHECK(pos < num_bits_);
    std::uint64_t s = pos >> shard_shift_;
    while (s + 1 < start_.size() && start_[s + 1] <= pos) ++s;
    return s;
  }

  std::uint64_t PhysicalPos(std::uint64_t pos) const {
    const std::uint64_t s = LocateShard(pos);
    return s * shard_bits_ + (pos - start_[s]);
  }

  /// Deletes the bit at in-shard offset `off` of shard `s` whose current
  /// used-bit count is `used` (shift only; start values untouched).
  void ShiftWithinShard(std::uint64_t s, std::uint64_t off,
                        std::uint64_t used) {
    shift_fn_(words_.data() + s * shard_words_, off, used);
  }

  void MaybeAutoCondense();

  ShardedBitmapOptions options_;
  std::uint64_t shard_bits_;
  std::uint64_t shard_words_;
  std::uint64_t shard_shift_;  // log2(shard_bits_)
  ShiftFn shift_fn_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> start_;
  std::uint64_t num_bits_ = 0;
};

}  // namespace patchindex

#endif  // PATCHINDEX_BITMAP_SHARDED_BITMAP_H_
