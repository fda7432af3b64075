#ifndef PATCHINDEX_PATCHINDEX_INDEX_LOOKUP_H_
#define PATCHINDEX_PATCHINDEX_INDEX_LOOKUP_H_

#include <vector>

namespace patchindex {

class PatchIndex;
class Table;

/// Read-side index resolution, abstracted away from the live
/// PatchIndexManager so the optimizer can rewrite plans against either
/// the head registry (DML row-finding, free-standing tables) or a pinned
/// MVCC table version's immutable index snapshots — the rewriter itself
/// never knows which. Implementations resolve by partition address:
/// whatever Table object the plan's scan nodes reference is the object
/// indexes are looked up on.
class IndexLookup {
 public:
  virtual ~IndexLookup() = default;

  /// Every index defined on `table` (one partition). The returned
  /// pointers must stay valid for the duration of the plan they are
  /// stitched into — the manager guarantees this via the caller's table
  /// lock, a pinned version via its epoch pin.
  virtual std::vector<const PatchIndex*> FindIndexesOn(
      const Table& table) const = 0;
};

}  // namespace patchindex

#endif  // PATCHINDEX_PATCHINDEX_INDEX_LOOKUP_H_
