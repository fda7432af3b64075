#ifndef PATCHINDEX_PATCHINDEX_CHECKPOINT_H_
#define PATCHINDEX_PATCHINDEX_CHECKPOINT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "patchindex/patch_index.h"
#include "storage/fault_fs.h"

namespace patchindex {

/// PatchIndex persistence (paper §3.4): PatchIndexes are main-memory
/// structures and are normally *recreated* after a restart to keep the
/// log slim; "alternatively, the PatchIndex information can be persisted
/// to disk as a checkpoint". This module implements that alternative:
/// a small binary file holding the constraint metadata and the patch
/// rowIDs (run-length friendly: rowIDs are delta-encoded).
///
/// Format: magic "PIDXCKP2", then exactly one CRC frame
/// (storage/codec.h: u32 len | u32 crc32c | payload) whose payload, in
/// the shared codec, is
///   u8 constraint, u64 column, u8 design, u8 ascending,
///   u8 has_tail, i64 tail, u8 has_constant, i64 constant,
///   u64 num_rows, u64 num_patches, u64 deltas[num_patches]
/// where deltas[0] is the first patch rowID and deltas[i] the distance to
/// the previous one. The CRC makes every torn write and every flipped bit
/// a load error instead of a silently wrong patch set; recovery then
/// rebuilds the index by discovery. Files of the earlier unframed format
/// ("PIDXCKP1") fail the magic check the same way.
/// `hook` injects write/fsync faults at the "pidx_ckpt.write" and
/// "pidx_ckpt.fsync" crash points (storage/fault_fs.h); the engine's
/// checkpoint path passes DurabilityOptions::fault_hook through.
Status SavePatchIndexCheckpoint(const PatchIndex& index,
                                const std::string& path,
                                const FaultHook& hook = nullptr);

/// Restores an index from a checkpoint against `table`. Fails with
/// kInvalidArgument on a bad magic, a bad frame, trailing bytes or a
/// malformed payload, and with kConstraintViolation when
/// the checkpointed cardinality does not match the table (the table
/// changed after the checkpoint; per §3.4 the caller must then replay the
/// logged updates or recreate the index).
Result<std::unique_ptr<PatchIndex>> LoadPatchIndexCheckpoint(
    const std::string& path, const Table& table,
    PatchIndexOptions options = {});

}  // namespace patchindex

#endif  // PATCHINDEX_PATCHINDEX_CHECKPOINT_H_
