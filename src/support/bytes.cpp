#include "support/bytes.hpp"

namespace saintdroid {

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::uleb(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::sleb(std::int64_t v) {
  // Zig-zag: interleaves negative and non-negative values.
  const auto u = static_cast<std::uint64_t>(v);
  uleb((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::str(std::string_view s) {
  uleb(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const std::uint16_t lo = u8();
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  require(4);
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  require(8);
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::uint64_t ByteReader::uleb() {
  std::uint64_t result = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t byte = u8();
    if (shift >= 64) throw ParseError("overlong ULEB128");
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return result;
    shift += 7;
  }
}

std::int64_t ByteReader::sleb() {
  const std::uint64_t u = uleb();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::uint64_t ByteReader::count(std::uint64_t min_element_bytes) {
  const std::uint64_t n = uleb();
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (n > remaining() / min_element_bytes)
    throw ParseError("element count exceeds remaining input");
  return n;
}

std::span<const std::uint8_t> ByteReader::bytes(std::uint64_t n) {
  require(n);
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::string ByteReader::str() {
  const std::uint64_t n = uleb();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace saintdroid
