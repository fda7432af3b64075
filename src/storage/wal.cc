#include "storage/wal.h"

namespace patchindex {

std::string EncodeWalHeader(const WalHeader& header) {
  std::string out;
  PutString(&out, header.table);
  PutU32(&out, header.partition);
  PutU64(&out, header.snapshot_csn);
  return out;
}

Status DecodeWalHeader(std::string_view payload, WalHeader* out) {
  ByteReader r(payload);
  out->table = r.GetString();
  out->partition = r.GetU32();
  out->snapshot_csn = r.GetU64();
  if (!r.done()) return Status::Internal("malformed WAL header payload");
  return Status::OK();
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  PutU64(&out, record.csn);
  PutU32(&out, record.commit_partitions);
  PutU32(&out, static_cast<std::uint32_t>(record.inserts.size()));
  for (const Row& row : record.inserts) {
    PutU32(&out, static_cast<std::uint32_t>(row.cells.size()));
    for (const Value& v : row.cells) PutValue(&out, v);
  }
  PutU32(&out, static_cast<std::uint32_t>(record.deletes.size()));
  for (const RowId row : record.deletes) PutU64(&out, row);
  PutU32(&out, static_cast<std::uint32_t>(record.modifies.size()));
  for (const WalCell& cell : record.modifies) {
    PutU64(&out, cell.row);
    PutU32(&out, cell.column);
    PutValue(&out, cell.value);
  }
  return out;
}

Status DecodeWalRecord(std::string_view payload, WalRecord* out) {
  ByteReader r(payload);
  out->csn = r.GetU64();
  out->commit_partitions = r.GetU32();
  const std::uint32_t n_inserts = r.GetU32();
  out->inserts.clear();
  for (std::uint32_t i = 0; i < n_inserts && r.ok(); ++i) {
    const std::uint32_t n_cells = r.GetU32();
    // Every cell takes at least 2 encoded bytes; reject counts the
    // remaining payload cannot possibly hold before reserving memory.
    if (n_cells > r.remaining()) {
      return Status::Internal("malformed WAL record: cell count overflow");
    }
    Row row;
    row.cells.reserve(n_cells);
    for (std::uint32_t c = 0; c < n_cells && r.ok(); ++c) {
      row.cells.push_back(r.GetValue());
    }
    out->inserts.push_back(std::move(row));
  }
  const std::uint32_t n_deletes = r.GetU32();
  if (r.ok() && n_deletes > r.remaining()) {
    return Status::Internal("malformed WAL record: delete count overflow");
  }
  out->deletes.clear();
  for (std::uint32_t i = 0; i < n_deletes && r.ok(); ++i) {
    out->deletes.push_back(r.GetU64());
  }
  const std::uint32_t n_modifies = r.GetU32();
  if (r.ok() && n_modifies > r.remaining()) {
    return Status::Internal("malformed WAL record: modify count overflow");
  }
  out->modifies.clear();
  for (std::uint32_t i = 0; i < n_modifies && r.ok(); ++i) {
    WalCell cell;
    cell.row = r.GetU64();
    cell.column = r.GetU32();
    cell.value = r.GetValue();
    out->modifies.push_back(std::move(cell));
  }
  if (!r.done()) return Status::Internal("malformed WAL record payload");
  if (out->commit_partitions == 0) {
    return Status::Internal("malformed WAL record: zero commit_partitions");
  }
  return Status::OK();
}

WalContents ParseWalFile(std::string_view data) {
  WalContents out;
  const std::string_view magic = WalMagic();
  if (data.size() < magic.size() ||
      data.substr(0, magic.size()) != magic) {
    return out;  // header_valid=false: pre-header-fsync creation crash.
  }
  std::size_t offset = magic.size();
  std::string_view payload;
  if (!NextFrame(data, &offset, &payload) ||
      !DecodeWalHeader(payload, &out.header).ok()) {
    return out;
  }
  out.header_valid = true;
  out.valid_bytes = offset;
  while (NextFrame(data, &offset, &payload)) {
    WalRecord record;
    if (!DecodeWalRecord(payload, &record).ok()) break;
    out.records.push_back(std::move(record));
    out.valid_bytes = offset;
  }
  out.clean = out.valid_bytes == data.size();
  return out;
}

std::string_view WalMagic() { return std::string_view("PIWALOG1", 8); }

std::string_view CatalogLogMagic() { return std::string_view("PICATLG1", 8); }

}  // namespace patchindex
