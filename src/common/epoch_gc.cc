#include "common/epoch_gc.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace patchindex {

EpochGc::~EpochGc() { ReclaimAll(); }

EpochGc::Guard::Guard(EpochGc& gc) : gc_(&gc) {
  // Spread claim attempts across the slot array so concurrent pins do
  // not all hammer slot 0.
  const std::size_t start =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kSlots;
  for (std::size_t attempt = 0;; ++attempt) {
    const std::size_t i = (start + attempt) % kSlots;
    // Stamp before the CAS: once the slot flips away from kIdle it must
    // already carry a valid epoch, never a placeholder.
    epoch_ = gc_->epoch_.load(std::memory_order_seq_cst);
    std::uint64_t expected = kIdle;
    if (gc_->slots_[i].epoch.compare_exchange_strong(
            expected, epoch_, std::memory_order_seq_cst)) {
      slot_ = i;
      return;
    }
    if (attempt != 0 && attempt % kSlots == 0) std::this_thread::yield();
  }
}

EpochGc::Guard::~Guard() {
  gc_->slots_[slot_].epoch.store(kIdle, std::memory_order_seq_cst);
  // The departing reader may have been the one holding back reclamation.
  gc_->TryReclaim();
}

void EpochGc::Retire(std::function<void()> deleter) {
  const std::uint64_t e =
      epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(Retired{e, std::move(deleter)});
  }
  TryReclaim();
}

std::uint64_t EpochGc::MinPinned() const {
  std::uint64_t min = kIdle;
  for (const Slot& s : slots_) {
    const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e < min) min = e;
  }
  return min;
}

std::uint64_t EpochGc::ReclaimHorizon() const {
  // Load the epoch BEFORE the slot scan. The scan only vouches for
  // entries retired before it started: an entry retired while (or after)
  // it runs may belong to a reader whose pin the scan already passed, so
  // the scan's minimum alone would free it under that reader. Capping by
  // the pre-scan epoch admits only entries whose retirement — and hence
  // whose writer's unlink — precedes the whole scan.
  const std::uint64_t bound = epoch_.load(std::memory_order_seq_cst);
  return std::min(bound, MinPinned());
}

std::size_t EpochGc::TryReclaim() { return ReclaimThrough(ReclaimHorizon()); }

std::size_t EpochGc::ReclaimThrough(std::uint64_t horizon) {
  std::vector<Retired> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto keep = retired_.begin();
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      // `<=`: a guard stamped exactly at the retirement epoch pinned
      // after the retire's epoch bump — which follows the writer's
      // unlink — so its pointer load saw the replacement, never this
      // object. Only stamps strictly below the retirement epoch can
      // still hold it.
      if (it->epoch <= horizon) {
        ready.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    retired_.erase(keep, retired_.end());
  }
  // Deleters run outside mu_: they may Retire() further objects.
  for (Retired& r : ready) r.deleter();
  reclaimed_total_.fetch_add(ready.size(), std::memory_order_relaxed);
  return ready.size();
}

void EpochGc::ReclaimAll() {
  while (TryReclaim() > 0) {
  }
}

EpochGc::Stats EpochGc::GetStats() const {
  Stats st;
  st.epoch = epoch_.load(std::memory_order_seq_cst);
  st.oldest_pinned = kIdle;
  for (const Slot& s : slots_) {
    const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e == kIdle) continue;
    ++st.pinned;
    if (e < st.oldest_pinned) st.oldest_pinned = e;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    st.retired_pending = retired_.size();
  }
  st.reclaimed_total = reclaimed_total_.load(std::memory_order_relaxed);
  return st;
}

EpochGc& EpochGc::Global() {
  static EpochGc* gc = new EpochGc();  // leaked: see header
  return *gc;
}

}  // namespace patchindex
