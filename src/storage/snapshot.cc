#include "storage/snapshot.h"

#include "storage/codec.h"

namespace patchindex {

namespace {

constexpr std::string_view kSnapshotMagic = std::string_view("PISNAP01", 8);
constexpr std::string_view kManifestMagic = std::string_view("PIMANIF1", 8);

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::Internal("snapshot " + path + " is invalid: " + what);
}

}  // namespace

Status SaveTableSnapshot(const Table& table, const std::string& path,
                         const FaultHook& hook) {
  const Schema& schema = table.schema();
  const std::uint64_t rows = table.num_rows();

  std::string file(kSnapshotMagic);
  std::string payload;
  PutU32(&payload, static_cast<std::uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    PutString(&payload, f.name);
    PutColumnType(&payload, f.type);
  }
  PutU64(&payload, rows);
  AppendFrame(&file, payload);

  for (std::size_t c = 0; c < schema.num_fields(); ++c) {
    const Column& col = table.column(c);
    payload.clear();
    switch (col.type()) {
      case ColumnType::kInt64:
        for (std::uint64_t r = 0; r < rows; ++r) {
          PutI64(&payload, col.GetInt64(r));
        }
        break;
      case ColumnType::kDouble:
        for (std::uint64_t r = 0; r < rows; ++r) {
          PutF64(&payload, col.GetDouble(r));
        }
        break;
      case ColumnType::kString:
        for (std::uint64_t r = 0; r < rows; ++r) {
          PutString(&payload, col.GetString(r));
        }
        break;
    }
    AppendFrame(&file, payload);
  }

  auto f = DurableFile::Create(path, hook);
  if (!f.ok()) return f.status();
  PIDX_RETURN_NOT_OK(f.value().Append("snap.write", file.data(), file.size()));
  PIDX_RETURN_NOT_OK(f.value().Fsync("snap.fsync"));
  return Status::OK();
}

Result<std::unique_ptr<Table>> LoadTableSnapshot(const std::string& path,
                                                 const Schema& expected) {
  std::string data;
  PIDX_RETURN_NOT_OK(ReadFileBytes(path, &data));
  if (data.size() < kSnapshotMagic.size() ||
      std::string_view(data).substr(0, kSnapshotMagic.size()) !=
          kSnapshotMagic) {
    return Corrupt(path, "bad magic");
  }
  std::size_t offset = kSnapshotMagic.size();
  std::string_view payload;
  if (!NextFrame(data, &offset, &payload)) {
    return Corrupt(path, "unreadable schema frame");
  }
  ByteReader r(payload);
  const std::uint32_t n_cols = r.GetU32();
  if (!r.ok() || n_cols != expected.num_fields()) {
    return Corrupt(path, "column count mismatch");
  }
  for (std::uint32_t c = 0; c < n_cols; ++c) {
    const std::string name = r.GetString();
    const ColumnType type = r.GetColumnType();
    if (!r.ok()) return Corrupt(path, "unreadable schema frame");
    if (name != expected.field(c).name || type != expected.field(c).type) {
      return Corrupt(path, "schema mismatch on column " + name);
    }
  }
  const std::uint64_t rows = r.GetU64();
  if (!r.done()) return Corrupt(path, "unreadable schema frame");

  auto table = std::make_unique<Table>(expected);
  for (std::uint32_t c = 0; c < n_cols; ++c) {
    if (!NextFrame(data, &offset, &payload)) {
      return Corrupt(path, "missing column frame");
    }
    ByteReader col_reader(payload);
    Column& col = table->column(c);
    col.Reserve(rows);
    switch (col.type()) {
      case ColumnType::kInt64:
        for (std::uint64_t i = 0; i < rows; ++i) {
          col.AppendInt64(col_reader.GetI64());
        }
        break;
      case ColumnType::kDouble:
        for (std::uint64_t i = 0; i < rows; ++i) {
          col.AppendDouble(col_reader.GetF64());
        }
        break;
      case ColumnType::kString:
        for (std::uint64_t i = 0; i < rows; ++i) {
          col.AppendString(col_reader.GetString());
        }
        break;
    }
    if (!col_reader.done()) return Corrupt(path, "malformed column frame");
  }
  if (offset != data.size()) return Corrupt(path, "trailing bytes");
  return table;
}

Status SaveManifest(const SnapshotManifest& manifest, const std::string& path,
                    const FaultHook& hook) {
  std::string file(kManifestMagic);
  std::string payload;
  PutU64(&payload, manifest.csn);
  PutU32(&payload, static_cast<std::uint32_t>(manifest.partition_rows.size()));
  for (const std::uint64_t rows : manifest.partition_rows) {
    PutU64(&payload, rows);
  }
  AppendFrame(&file, payload);

  auto f = DurableFile::Create(path, hook);
  if (!f.ok()) return f.status();
  PIDX_RETURN_NOT_OK(
      f.value().Append("manifest.write", file.data(), file.size()));
  PIDX_RETURN_NOT_OK(f.value().Fsync("manifest.fsync"));
  return Status::OK();
}

Result<SnapshotManifest> LoadManifest(const std::string& path) {
  std::string data;
  PIDX_RETURN_NOT_OK(ReadFileBytes(path, &data));
  if (data.size() < kManifestMagic.size() ||
      std::string_view(data).substr(0, kManifestMagic.size()) !=
          kManifestMagic) {
    return Corrupt(path, "bad magic");
  }
  std::size_t offset = kManifestMagic.size();
  std::string_view payload;
  if (!NextFrame(data, &offset, &payload) || offset != data.size()) {
    return Corrupt(path, "unreadable manifest frame");
  }
  ByteReader r(payload);
  SnapshotManifest out;
  out.csn = r.GetU64();
  const std::uint32_t n = r.GetU32();
  if (r.ok() && n > r.remaining()) {
    return Corrupt(path, "partition count overflow");
  }
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    out.partition_rows.push_back(r.GetU64());
  }
  if (!r.done()) return Corrupt(path, "malformed manifest frame");
  return out;
}

}  // namespace patchindex
