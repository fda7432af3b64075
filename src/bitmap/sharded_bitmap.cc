#include "bitmap/sharded_bitmap.h"

#include <algorithm>
#include <bit>

#include "common/thread_pool.h"

namespace patchindex {

ShardedBitmap::ShardedBitmap(std::uint64_t num_bits,
                             ShardedBitmapOptions options)
    : options_(options),
      shard_bits_(options.shard_size_bits),
      shard_words_(options.shard_size_bits / bits::kBitsPerWord),
      shift_fn_(SelectShiftFn(options.vectorized)),
      num_bits_(num_bits) {
  PIDX_CHECK_MSG(std::has_single_bit(shard_bits_) && shard_bits_ >= 64,
                 "shard size must be a power of two >= 64");
  shard_shift_ = static_cast<std::uint64_t>(std::countr_zero(shard_bits_));
  const std::uint64_t nshards =
      num_bits == 0 ? 1 : (num_bits + shard_bits_ - 1) / shard_bits_;
  words_.assign(nshards * shard_words_, 0);
  start_.resize(nshards);
  for (std::uint64_t s = 0; s < nshards; ++s) start_[s] = s * shard_bits_;
}

void ShardedBitmap::Delete(std::uint64_t pos) {
  PIDX_CHECK(pos < num_bits_);
  const std::uint64_t s = LocateShard(pos);
  const std::uint64_t used = UsedBits(s);
  ShiftWithinShard(s, pos - start_[s], used);
  for (std::uint64_t t = s + 1; t < start_.size(); ++t) --start_[t];
  --num_bits_;
  MaybeAutoCondense();
}

void ShardedBitmap::BulkDelete(const std::vector<std::uint64_t>& positions) {
  if (positions.empty()) return;
  PIDX_CHECK(positions.back() < num_bits_);

  // Preprocessing: map each logical position to (shard, in-shard offset)
  // against the *pre-delete* structure. Positions are ascending, so a
  // single forward walk over shards suffices.
  struct ShardWork {
    std::uint64_t shard;
    std::uint64_t used;                 // pre-delete used bits
    std::vector<std::uint64_t> offsets; // ascending in-shard offsets
  };
  std::vector<ShardWork> work;
  std::uint64_t s = 0;
  for (std::uint64_t pos : positions) {
    while (s + 1 < start_.size() && start_[s + 1] <= pos) ++s;
    if (work.empty() || work.back().shard != s) {
      work.push_back({s, UsedBits(s), {}});
    }
    work.back().offsets.push_back(pos - start_[s]);
  }

  // Step (b): shard-local shifts, shards spread over the pool, processed
  // in descending offset order so earlier deletes do not invalidate later
  // offsets within the shard.
  auto run_shard = [this](const ShardWork& w) {
    std::uint64_t used = w.used;
    for (auto it = w.offsets.rbegin(); it != w.offsets.rend(); ++it) {
      ShiftWithinShard(w.shard, *it, used);
      --used;
    }
  };
  if (options_.pool != nullptr && work.size() > 1) {
    options_.pool->ParallelFor(work.size(), [&run_shard, &work](std::size_t i) {
      run_shard(work[i]);
    });
  } else {
    for (const ShardWork& w : work) run_shard(w);
  }

  // Step (c): adapt all start values in a single traversal, holding a
  // running sum over deleted bits of preceding shards.
  std::uint64_t running = 0;
  std::size_t wi = 0;
  for (std::uint64_t t = 0; t < start_.size(); ++t) {
    start_[t] -= running;
    if (wi < work.size() && work[wi].shard == t) {
      running += work[wi].offsets.size();
      ++wi;
    }
  }
  num_bits_ -= positions.size();
  MaybeAutoCondense();
}

void ShardedBitmap::Append(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t last = start_.size() - 1;
    if (UsedBits(last) == shard_bits_) {
      // Last shard physically full: open a new shard.
      start_.push_back(num_bits_);
      words_.resize(words_.size() + shard_words_, 0);
    }
    // Lost bits are kept zero (deletes clear the vacated tail bit), so the
    // appended bit is already 0; growing num_bits_ exposes it.
    ++num_bits_;
  }
}

void ShardedBitmap::Condense() {
  // Single traversal: stream the used bit range of every shard into a
  // fully-packed copy. Word-granular: accumulate into a 64-bit write
  // buffer and flush full words.
  std::vector<std::uint64_t> packed(bits::WordsForBits(num_bits_), 0);
  std::uint64_t wpos = 0;  // next write bit position in `packed`
  for (std::uint64_t sh = 0; sh < start_.size(); ++sh) {
    const std::uint64_t used = UsedBits(sh);
    const std::uint64_t* src = words_.data() + sh * shard_words_;
    std::uint64_t copied = 0;
    while (copied < used) {
      const std::uint64_t n = std::min<std::uint64_t>(64, used - copied);
      // Extract n bits starting at `copied` from the shard.
      const std::uint64_t w = bits::WordIndex(copied);
      const std::uint64_t off = bits::BitOffset(copied);
      std::uint64_t chunk = src[w] >> off;
      if (off != 0 && w + 1 < shard_words_) chunk |= src[w + 1] << (64 - off);
      if (n < 64) chunk &= (~std::uint64_t{0} >> (64 - n));
      // Append the chunk at wpos.
      const std::uint64_t dw = bits::WordIndex(wpos);
      const std::uint64_t doff = bits::BitOffset(wpos);
      packed[dw] |= chunk << doff;
      if (doff != 0 && dw + 1 < packed.size()) packed[dw + 1] |= chunk >> (64 - doff);
      wpos += n;
      copied += n;
    }
  }
  PIDX_CHECK(wpos == num_bits_);

  const std::uint64_t nshards =
      num_bits_ == 0 ? 1 : (num_bits_ + shard_bits_ - 1) / shard_bits_;
  words_.assign(nshards * shard_words_, 0);
  std::copy(packed.begin(), packed.end(), words_.begin());
  start_.resize(nshards);
  for (std::uint64_t t = 0; t < nshards; ++t) start_[t] = t * shard_bits_;
}

void ShardedBitmap::ForEachSetBit(
    const std::function<void(std::uint64_t)>& fn) const {
  for (std::uint64_t sh = 0; sh < start_.size(); ++sh) {
    const std::uint64_t used = UsedBits(sh);
    const std::uint64_t* src = words_.data() + sh * shard_words_;
    const std::uint64_t nwords = bits::WordsForBits(used);
    for (std::uint64_t w = 0; w < nwords; ++w) {
      std::uint64_t word = src[w];
      while (word != 0) {
        const int tz = std::countr_zero(word);
        const std::uint64_t off = w * 64 + static_cast<std::uint64_t>(tz);
        // Lost bits are zero by invariant, so off < used always holds.
        fn(start_[sh] + off);
        word &= word - 1;
      }
    }
  }
}

void ShardedBitmap::ForEachSetBitInRange(
    std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t)>& fn) const {
  if (begin >= end) return;
  PIDX_CHECK(end <= num_bits_);
  std::uint64_t sh = LocateShard(begin);
  for (; sh < start_.size() && start_[sh] < end; ++sh) {
    const std::uint64_t used = UsedBits(sh);
    const std::uint64_t* src = words_.data() + sh * shard_words_;
    // In-shard offsets covered by [begin, end).
    const std::uint64_t lo = begin > start_[sh] ? begin - start_[sh] : 0;
    const std::uint64_t hi = std::min<std::uint64_t>(used, end - start_[sh]);
    if (lo >= hi) continue;
    for (std::uint64_t w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
      std::uint64_t word = src[w];
      if (word == 0) continue;
      while (word != 0) {
        const int tz = std::countr_zero(word);
        const std::uint64_t off = w * 64 + static_cast<std::uint64_t>(tz);
        word &= word - 1;
        if (off < lo) continue;
        if (off >= hi) return;
        fn(start_[sh] + off);
      }
    }
  }
}

std::vector<std::uint64_t> ShardedBitmap::SetBitPositions() const {
  std::vector<std::uint64_t> out;
  out.reserve(CountSetBits());
  ForEachSetBit([&out](std::uint64_t pos) { out.push_back(pos); });
  return out;
}

void ShardedBitmap::MaybeAutoCondense() {
  if (options_.auto_condense_threshold > 0.0 &&
      Utilization() < options_.auto_condense_threshold) {
    Condense();
  }
}

}  // namespace patchindex
