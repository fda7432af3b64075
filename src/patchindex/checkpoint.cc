#include "patchindex/checkpoint.h"

#include <string_view>

#include "storage/codec.h"

namespace patchindex {

namespace {

constexpr std::string_view kMagic = std::string_view("PIDXCKP2", 8);

Status Corrupt(const std::string& path, const char* what) {
  return Status::InvalidArgument("corrupted PatchIndex checkpoint " + path +
                                 ": " + what);
}

}  // namespace

Status SavePatchIndexCheckpoint(const PatchIndex& index,
                                const std::string& path,
                                const FaultHook& hook) {
  // Serialize into memory, then write + fsync through DurableFile so the
  // crash-injection harness covers this path ("pidx_ckpt.*" points).
  const PatchIndexState state = index.ExportState();
  std::string payload;
  PutU8(&payload, static_cast<std::uint8_t>(state.constraint));
  PutU64(&payload, state.column);
  PutU8(&payload, static_cast<std::uint8_t>(index.patches().design()));
  PutU8(&payload, index.ascending() ? 1 : 0);
  PutU8(&payload, state.has_tail ? 1 : 0);
  PutI64(&payload, state.tail_value);
  PutU8(&payload, state.has_constant ? 1 : 0);
  PutI64(&payload, state.constant_value);
  PutU64(&payload, state.num_rows);
  PutU64(&payload, state.patches.size());
  // Delta encoding keeps the file small for clustered patches.
  std::uint64_t prev = 0;
  for (const RowId row : state.patches) {
    PutU64(&payload, row - prev);
    prev = row;
  }
  std::string file(kMagic);
  AppendFrame(&file, payload);

  auto f = DurableFile::Create(path, hook);
  if (!f.ok()) return f.status();
  PIDX_RETURN_NOT_OK(f.value().Append("pidx_ckpt.write", file.data(),
                                      file.size()));
  return f.value().Fsync("pidx_ckpt.fsync");
}

Result<std::unique_ptr<PatchIndex>> LoadPatchIndexCheckpoint(
    const std::string& path, const Table& table, PatchIndexOptions options) {
  std::string data;
  PIDX_RETURN_NOT_OK(ReadFileBytes(path, &data));
  if (std::string_view(data).substr(0, kMagic.size()) != kMagic) {
    return Status::InvalidArgument("not a PatchIndex checkpoint: " + path);
  }
  std::size_t offset = kMagic.size();
  std::string_view payload;
  if (!NextFrame(data, &offset, &payload)) {
    return Corrupt(path, "unreadable frame");
  }
  if (offset != data.size()) return Corrupt(path, "trailing bytes");

  ByteReader r(payload);
  PatchIndexState state;
  const std::uint8_t constraint = r.GetU8();
  state.column = static_cast<std::size_t>(r.GetU64());
  const std::uint8_t design = r.GetU8();
  options.ascending = r.GetU8() != 0;
  state.has_tail = r.GetU8() != 0;
  state.tail_value = r.GetI64();
  state.has_constant = r.GetU8() != 0;
  state.constant_value = r.GetI64();
  state.num_rows = r.GetU64();
  const std::uint64_t num_patches = r.GetU64();
  if (!r.ok() || constraint > 2 || design > 1) {
    return Corrupt(path, "bad header");
  }
  if (num_patches > state.num_rows || num_patches > r.remaining() / 8) {
    return Corrupt(path, "patch count exceeds the rows or the payload");
  }
  state.constraint = static_cast<ConstraintKind>(constraint);
  options.design = static_cast<PatchSetDesign>(design);

  state.patches.reserve(num_patches);
  std::uint64_t row = 0;
  for (std::uint64_t i = 0; i < num_patches; ++i) {
    row += r.GetU64();
    state.patches.push_back(row);
  }
  if (!r.done()) return Corrupt(path, "trailing bytes in the frame");
  return PatchIndex::Restore(table, state, options);
}

}  // namespace patchindex
