#ifndef PATCHINDEX_COMMON_EPOCH_GC_H_
#define PATCHINDEX_COMMON_EPOCH_GC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace patchindex {

/// Epoch-based deferred reclamation for read-mostly shared state.
///
/// Readers wrap each read-side critical section in a Guard: the guard
/// claims one of a fixed pool of pinned-epoch slots, stamps it with the
/// current global epoch, and releases it on destruction. Writers that
/// unlink an object from shared structures hand its destructor to
/// Retire(); the deleter runs only once every slot pinned at (or before)
/// the retirement epoch has been released — i.e. once no reader that
/// could still hold a pointer to the object remains inside its critical
/// section.
///
/// Ordering contract (all slot and epoch accesses are seq_cst, so a
/// single total order S over them exists):
///   - A reader pins FIRST (slot CAS), then loads the shared pointer.
///   - A writer unlinks FIRST (atomic swap of the shared pointer), then
///     calls Retire(), which advances the epoch; the new value is the
///     entry's retirement epoch.
///   - A reclaimer (any thread in TryReclaim) loads the epoch FIRST, then
///     scans the slots, and frees only entries whose retirement epoch is
///     <= both the loaded epoch and every pinned stamp it saw.
/// The first bound means a freed entry was retired — hence unlinked —
/// before the scan began. A reader whose pin precedes the scan of its
/// slot is seen by the scan; if it could hold the entry, its pointer load
/// preceded the unlink, so its stamp is strictly below the retirement
/// epoch and the entry is withheld. A reader whose pin follows the scan
/// of its slot pinned after the unlink, so its pointer load observes the
/// replacement — it can never obtain the retired object. Either way
/// nothing is freed while reachable. (The scan alone is not enough: an
/// entry retired after one thread's scan but before its splice would be
/// freed under a reader that pinned in between.)
///
/// Slots, not thread-locals: a fixed array of kSlots cache-line-padded
/// atomics, claimed per-Guard by CAS. This keeps the structure safe
/// across thread churn (server connection threads come and go) and
/// across multiple short-lived Engine instances in one process, at the
/// cost of a short scan per pin.
class EpochGc {
 public:
  /// Upper bound on concurrently pinned guards; far above any realistic
  /// reader count (threads are bounded by kMaxThreadsEnv plus a handful
  /// of server threads). Claiming spins if all slots are taken.
  static constexpr std::size_t kSlots = 1024;

  /// Slot value meaning "unclaimed".
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  EpochGc() = default;
  ~EpochGc();

  EpochGc(const EpochGc&) = delete;
  EpochGc& operator=(const EpochGc&) = delete;

  /// RAII pin: claims a slot stamped with the current epoch for its
  /// lifetime. Destruction releases the slot and opportunistically
  /// reclaims newly-safe retirements.
  class Guard {
   public:
    explicit Guard(EpochGc& gc);
    ~Guard();

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /// The epoch this guard pinned at.
    std::uint64_t epoch() const { return epoch_; }

   private:
    EpochGc* gc_;
    std::size_t slot_;
    std::uint64_t epoch_;
  };

  /// Defers `deleter` until every guard pinned at retirement time has
  /// been released. The caller must already have unlinked the object
  /// from all shared structures (see the ordering contract above).
  /// Deleters run on whichever thread triggers reclamation — they must
  /// not acquire locks held across Retire()/Guard destruction.
  void Retire(std::function<void()> deleter);

  /// Runs every deferred deleter retired before this call began whose
  /// retirement epoch is not newer than the oldest pinned guard. Returns
  /// the number reclaimed. Safe to call concurrently; deleters run
  /// outside the internal lock.
  std::size_t TryReclaim();

  /// Best-effort drain for shutdown paths: repeatedly reclaims while
  /// progress is made. Entries stuck behind a still-pinned guard remain
  /// deferred (they are reclaimed later, or leak at process exit — never
  /// double-freed).
  void ReclaimAll();

  struct Stats {
    std::uint64_t epoch = 0;            ///< Current global epoch.
    std::uint64_t pinned = 0;           ///< Guards currently pinned.
    std::uint64_t oldest_pinned = 0;    ///< Oldest pinned stamp (kIdle if none).
    std::uint64_t retired_pending = 0;  ///< Deleters still deferred.
    std::uint64_t reclaimed_total = 0;  ///< Deleters run since construction.
  };
  Stats GetStats() const;

  /// Process-wide instance shared by table-version scans, the flight
  /// recorder's active-query registry, and server connection teardown.
  /// Never destroyed (intentionally leaked) so deleters retired during
  /// static teardown cannot touch a dead instance.
  static EpochGc& Global();

 private:
  friend class EpochGcTestPeer;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
  };

  struct Retired {
    std::uint64_t epoch;
    std::function<void()> deleter;
  };

  /// Oldest epoch stamped into any claimed slot; kIdle when none are.
  std::uint64_t MinPinned() const;

  /// The two halves of TryReclaim. ReclaimHorizon loads the epoch, then
  /// scans the slots, and returns the smaller of the two; ReclaimThrough
  /// splices out and runs every deleter retired at or below `horizon`.
  std::uint64_t ReclaimHorizon() const;
  std::size_t ReclaimThrough(std::uint64_t horizon);

  Slot slots_[kSlots];
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> reclaimed_total_{0};

  mutable std::mutex mu_;
  std::vector<Retired> retired_;  // guarded by mu_
};

}  // namespace patchindex

#endif  // PATCHINDEX_COMMON_EPOCH_GC_H_
