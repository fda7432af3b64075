#ifndef PATCHINDEX_STORAGE_WAL_H_
#define PATCHINDEX_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/codec.h"
#include "storage/pdt.h"
#include "storage/value.h"

namespace patchindex {

/// Write-ahead log format (one file per table partition, plus a catalog
/// log with DDL payloads that reuses the same framing).
///
/// File layout:
///   8-byte magic ("PIWALOG1" for partition logs, "PICATLG1" for the
///   catalog log), then a sequence of CRC frames (storage/codec.h:
///   AppendFrame/NextFrame), payloads in the shared codec. The first
///   frame of a partition log is the header payload (table name,
///   partition index, snapshot csn); every later frame is one commit
///   record.
///
/// Torn-tail rule: a reader consumes frames until the first invalid one
/// (truncated length/payload, CRC mismatch, oversized length, or a payload
/// that fails structural decoding) and ignores everything at and after it.
/// Appends are strictly at the end and bad frames can only be produced by
/// a crash mid-append, so only the tail is ever discardable.

/// One modified cell of a commit record (partition-local row position).
struct WalCell {
  RowId row = 0;
  std::uint32_t column = 0;
  Value value;
};

/// One committed update query's delta against one partition, in
/// partition-local coordinates (post-routing): replay applies it to the
/// owning partition directly, bypassing the insert-routing policy, so
/// recovery reproduces the exact pre-crash placement.
struct WalRecord {
  /// Table-wide commit sequence number; strictly increasing because
  /// commits serialize under the table's exclusive lock.
  std::uint64_t csn = 0;
  /// Number of partitions this commit wrote. Recovery counts the records
  /// carrying the trailing csn and drops the whole commit when fewer than
  /// commit_partitions survived (a crash between per-partition appends).
  std::uint32_t commit_partitions = 1;
  std::vector<Row> inserts;
  std::vector<RowId> deletes;
  std::vector<WalCell> modifies;
};

/// Identity header of a partition log file.
struct WalHeader {
  std::string table;
  std::uint32_t partition = 0;
  /// The commit sequence number already captured by the snapshot this log
  /// continues from; records with csn <= snapshot_csn are never present.
  std::uint64_t snapshot_csn = 0;
};

/// Everything a partition log file yields on recovery.
struct WalContents {
  WalHeader header;
  std::vector<WalRecord> records;
  /// False when the magic or header frame is unreadable — only possible
  /// when a crash hit file creation before the header fsync, i.e. before
  /// any commit on this log could have been acknowledged.
  bool header_valid = false;
  /// True when every byte of the file parsed as valid frames (no torn
  /// tail to truncate away).
  bool clean = false;
  /// File offset one past the last valid frame; the torn-tail truncation
  /// target.
  std::uint64_t valid_bytes = 0;
};

std::string EncodeWalHeader(const WalHeader& header);
Status DecodeWalHeader(std::string_view payload, WalHeader* out);

std::string EncodeWalRecord(const WalRecord& record);
Status DecodeWalRecord(std::string_view payload, WalRecord* out);

/// Parses a partition log image (the whole file read into memory).
/// Returns contents with header_valid=false for a file too damaged to
/// identify; never fails on corrupt input — corruption truncates.
WalContents ParseWalFile(std::string_view data);

/// 8-byte magics.
std::string_view WalMagic();
std::string_view CatalogLogMagic();

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_WAL_H_
