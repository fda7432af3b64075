#include "common/epoch_gc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace patchindex {

/// Runs TryReclaim's two halves separately, so a test can replay an
/// interleaving that concurrent reclaimers only hit by chance.
class EpochGcTestPeer {
 public:
  static std::uint64_t ReclaimHorizon(const EpochGc& gc) {
    return gc.ReclaimHorizon();
  }
  static std::size_t ReclaimThrough(EpochGc& gc, std::uint64_t horizon) {
    return gc.ReclaimThrough(horizon);
  }
};

namespace {

TEST(EpochGcTest, RetireWithNoPinsReclaimsImmediately) {
  EpochGc gc;
  bool freed = false;
  gc.Retire([&] { freed = true; });
  EXPECT_TRUE(freed);
  const EpochGc::Stats st = gc.GetStats();
  EXPECT_EQ(st.retired_pending, 0u);
  EXPECT_EQ(st.reclaimed_total, 1u);
  EXPECT_EQ(st.pinned, 0u);
}

TEST(EpochGcTest, NothingFreedWhilePinned) {
  EpochGc gc;
  bool freed = false;
  {
    EpochGc::Guard guard(gc);
    gc.Retire([&] { freed = true; });
    EXPECT_FALSE(freed);
    gc.TryReclaim();
    EXPECT_FALSE(freed);
    EXPECT_EQ(gc.GetStats().retired_pending, 1u);
    EXPECT_EQ(gc.GetStats().pinned, 1u);
  }
  // Guard release triggers reclamation on its own.
  EXPECT_TRUE(freed);
  EXPECT_EQ(gc.GetStats().retired_pending, 0u);
}

TEST(EpochGcTest, PinAfterRetireDoesNotBlockReclaim) {
  EpochGc gc;
  bool freed = false;
  gc.Retire([&] { freed = true; });  // no pins: freed at once
  EXPECT_TRUE(freed);

  bool freed2 = false;
  std::optional<EpochGc::Guard> late;
  {
    EpochGc::Guard guard(gc);
    gc.Retire([&] { freed2 = true; });
    late.emplace(gc);  // pinned AFTER the retire: must not extend its life
  }
  EXPECT_TRUE(freed2) << "a guard pinned after the retirement epoch cannot "
                         "hold the object";
  late.reset();
}

// A reclaimer computes its horizon while nothing is pinned, then stalls
// before splicing. Meanwhile a reader pins and loads the shared object,
// and a writer unlinks and retires it (the writer's own reclaim sees the
// pin and withholds the entry). The stalled reclaimer's horizon predates
// the retirement, so resuming with it must not free what the reader
// still holds.
TEST(EpochGcTest, StaleHorizonDoesNotFreeEntryRetiredAfterScan) {
  EpochGc gc;
  bool freed = false;
  const std::uint64_t stale = EpochGcTestPeer::ReclaimHorizon(gc);
  {
    EpochGc::Guard reader(gc);
    gc.Retire([&] { freed = true; });
    ASSERT_FALSE(freed);
    EXPECT_EQ(EpochGcTestPeer::ReclaimThrough(gc, stale), 0u);
    EXPECT_FALSE(freed) << "freed while a reader that pinned before the "
                           "retirement still holds it";
  }
  EXPECT_TRUE(freed);
}

TEST(EpochGcTest, OldestGuardGatesABatchOfRetirements) {
  EpochGc gc;
  std::atomic<int> freed{0};
  auto old_guard = std::make_unique<EpochGc::Guard>(gc);
  for (int i = 0; i < 10; ++i) gc.Retire([&] { freed.fetch_add(1); });
  {
    EpochGc::Guard young(gc);  // releases first; old_guard still gates
  }
  EXPECT_EQ(freed.load(), 0);
  old_guard.reset();
  EXPECT_EQ(freed.load(), 10);
  EXPECT_EQ(gc.GetStats().reclaimed_total, 10u);
}

TEST(EpochGcTest, StatsReportOldestPinned) {
  EpochGc gc;
  EXPECT_EQ(gc.GetStats().oldest_pinned, EpochGc::kIdle);
  EpochGc::Guard a(gc);
  gc.Retire([] {});  // advances the epoch past a's stamp
  EpochGc::Guard b(gc);
  const EpochGc::Stats st = gc.GetStats();
  EXPECT_EQ(st.pinned, 2u);
  EXPECT_EQ(st.oldest_pinned, a.epoch());
  EXPECT_LT(a.epoch(), b.epoch());
}

TEST(EpochGcTest, GlobalInstanceIsUsable) {
  bool freed = false;
  EpochGc::Global().Retire([&] { freed = true; });
  EpochGc::Global().ReclaimAll();
  EXPECT_TRUE(freed);
}

// The headline concurrency test: 8 threads hammer pin/read/retire cycles
// on a shared "current object" pointer. Each object checks, in its
// deleter, that no reader is still inside a section that could hold it;
// readers verify the object they loaded under a pin is never mutated to
// the poison value before they drop the pin. ASan (the CI tier-1 job)
// turns any premature free into a hard failure.
TEST(EpochGcTest, EightThreadsPinRetireReclaimNothingFreedWhilePinned) {
  constexpr std::uint64_t kPoison = ~std::uint64_t{0};
  struct Object {
    explicit Object(std::uint64_t g) : generation(g) {}
    std::atomic<std::uint64_t> generation;
  };

  EpochGc gc;
  std::atomic<Object*> current{new Object(0)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_reads{0};

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 4000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (t % 2 == 0) {
          // Writer: swap in a replacement, retire the old object. The
          // deleter poisons before deleting so a still-pinned reader
          // touching it would observe kPoison (and ASan would flag the
          // use-after-free).
          Object* fresh = new Object(std::uint64_t(t) << 32 | i);
          Object* old = current.exchange(fresh, std::memory_order_seq_cst);
          gc.Retire([old] {
            old->generation.store(kPoison,
                                  std::memory_order_relaxed);
            delete old;
          });
        } else {
          // Reader: pin, then load — the order the contract requires.
          EpochGc::Guard guard(gc);
          Object* obj = current.load(std::memory_order_seq_cst);
          for (int spin = 0; spin < 8; ++spin) {
            if (obj->generation.load(std::memory_order_relaxed) ==
                kPoison) {
              torn_reads.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  stop.store(true);

  gc.ReclaimAll();
  EXPECT_EQ(torn_reads.load(), 0u);
  const EpochGc::Stats st = gc.GetStats();
  EXPECT_EQ(st.pinned, 0u);
  EXPECT_EQ(st.retired_pending, 0u);
  // 4 writer threads each retired kItersPerThread objects.
  EXPECT_EQ(st.reclaimed_total, std::uint64_t(4) * kItersPerThread);

  delete current.load();
}

}  // namespace
}  // namespace patchindex
