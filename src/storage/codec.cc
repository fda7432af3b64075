#include "storage/codec.h"

#include "common/crc32.h"

namespace patchindex {

namespace {

/// Column type tags; 0 stays invalid so a zeroed byte never decodes.
constexpr std::uint8_t kTagInt64 = 1;
constexpr std::uint8_t kTagDouble = 2;
constexpr std::uint8_t kTagString = 3;

}  // namespace

void PutColumnType(std::string* out, ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      PutU8(out, kTagInt64);
      return;
    case ColumnType::kDouble:
      PutU8(out, kTagDouble);
      return;
    case ColumnType::kString:
      PutU8(out, kTagString);
      return;
  }
}

void PutValue(std::string* out, const Value& v) {
  PutColumnType(out, v.type());
  switch (v.type()) {
    case ColumnType::kInt64:
      PutI64(out, v.AsInt64());
      break;
    case ColumnType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case ColumnType::kString:
      PutString(out, v.AsString());
      break;
  }
}

ColumnType ByteReader::GetColumnType() {
  switch (GetU8()) {
    case kTagInt64:
      return ColumnType::kInt64;
    case kTagDouble:
      return ColumnType::kDouble;
    case kTagString:
      return ColumnType::kString;
    default:
      ok_ = false;
      return ColumnType::kInt64;
  }
}

Value ByteReader::GetValue() {
  const ColumnType type = GetColumnType();
  if (!ok_) return Value();
  switch (type) {
    case ColumnType::kInt64:
      return Value(GetI64());
    case ColumnType::kDouble:
      return Value(GetF64());
    case ColumnType::kString:
      return Value(GetString());
  }
  return Value();
}

void AppendFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, Crc32c(payload.data(), payload.size()));
  out->append(payload.data(), payload.size());
}

bool NextFrame(std::string_view data, std::size_t* offset,
               std::string_view* payload) {
  if (data.size() - *offset < 8) return false;
  ByteReader prefix(data.substr(*offset, 8));
  const std::uint32_t len = prefix.GetU32();
  const std::uint32_t crc = prefix.GetU32();
  if (len > kMaxFramePayloadBytes) return false;
  if (data.size() - *offset - 8 < len) return false;
  const std::string_view body = data.substr(*offset + 8, len);
  if (Crc32c(body.data(), body.size()) != crc) return false;
  *payload = body;
  *offset += 8 + len;
  return true;
}

}  // namespace patchindex
