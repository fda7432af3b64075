#ifndef PATCHINDEX_STORAGE_CODEC_H_
#define PATCHINDEX_STORAGE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "storage/value.h"

namespace patchindex {

/// The engine's one byte codec. Every durable file (WAL, catalog log,
/// snapshots, manifests, PatchIndex checkpoints) and every wire frame
/// payload (server/wire.h) is built from these primitives:
///
///   u8 / u32 / u64 / i64   fixed width, little-endian
///   f64                    the IEEE-754 bit pattern as a u64
///   string                 u32 length + bytes (no terminator)
///   column type            one tag byte: 1 = INT64, 2 = DOUBLE,
///                          3 = STRING; 0 and >3 are invalid
///   value                  its column type tag + the typed payload
///
/// Files wrap payloads in CRC32C frames (AppendFrame/NextFrame); the wire
/// has its own socket framing around the same payload primitives.
///
/// The writers append to a std::string and the reader is a bounds-checked
/// cursor over a string_view that never allocates for a fixed-width
/// field. Column blocks (PutBlock64/GetBlock64) move a whole INT64 or
/// DOUBLE column slice as n x 8 little-endian bytes, one memcpy on a
/// little-endian host, so the wire's kRowBatch (EncodeRowBatch/
/// DecodeRowBatch) costs one append and one bounds check per column per
/// batch rather than per cell.

/// Upper bound on one CRC frame's payload; a larger length prefix is
/// treated as corruption rather than attempted as an allocation.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 256u << 20;

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof bytes);
}

inline void PutU64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof bytes);
}

inline void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// A column block: `n` 8-byte values (int64_t or double) as `n x 8`
/// little-endian bytes, doubles as their IEEE-754 bit pattern.
template <typename T>
void PutBlock64(std::string* out, const T* values, std::size_t n) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(values), n * 8);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      PutU64(out, std::bit_cast<std::uint64_t>(values[i]));
    }
  }
}

/// Writes `type`'s tag byte; ByteReader::GetColumnType is its inverse.
void PutColumnType(std::string* out, ColumnType type);

/// Type tag + payload (i64, f64 or string).
void PutValue(std::string* out, const Value& v);

/// Bounds-checked reader over an encoded payload. The first short read
/// or invalid type tag turns `ok()` false for good; every later Get*
/// returns a default without reading. Callers check ok() once at the end
/// (and at loop boundaries guarding large allocations).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t GetU8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t GetU32() {
    if (!Need(4)) return 0;
    return static_cast<std::uint32_t>(Take(4));
  }
  std::uint64_t GetU64() {
    if (!Need(8)) return 0;
    return Take(8);
  }
  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }
  std::string GetString() { return std::string(GetBytes(GetU32())); }
  /// The next `n` bytes as a view into the payload (empty on a short
  /// read).
  std::string_view GetBytes(std::size_t n) {
    if (!Need(n)) return {};
    const std::string_view bytes = data_.substr(pos_, n);
    pos_ += n;
    return bytes;
  }
  /// Reads a tag written by PutColumnType; an invalid tag fails the
  /// reader (and returns kInt64).
  ColumnType GetColumnType();
  Value GetValue();

  bool ok() const { return ok_; }
  /// True when every byte was consumed without a failure — decoders use
  /// it to reject trailing bytes.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// Little-endian load of `n` <= 8 bytes already checked by Need.
  std::uint64_t Take(int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Inverse of PutBlock64: decodes the `bytes.size() / 8` values of a
/// block taken with ByteReader::GetBytes into `out`.
template <typename T>
void GetBlock64(std::string_view bytes, T* out) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (bytes.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, bytes.data(), bytes.size() / 8 * 8);
  } else {
    ByteReader r(bytes);
    for (std::size_t i = 0; i < bytes.size() / 8; ++i) {
      out[i] = std::bit_cast<T>(r.GetU64());
    }
  }
}

/// Appends one file frame wrapping `payload` to `out`:
///   u32 payload_len | u32 crc32c(payload) | payload
void AppendFrame(std::string* out, std::string_view payload);

/// Reads the frame starting at `*offset`. On success advances `*offset`
/// past the frame and points `payload` into `data`. Returns false at the
/// end of `data` or at the first invalid frame (short header or body,
/// length above kMaxFramePayloadBytes, CRC mismatch).
bool NextFrame(std::string_view data, std::size_t* offset,
               std::string_view* payload);

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_CODEC_H_
