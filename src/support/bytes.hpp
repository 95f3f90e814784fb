// Bounds-checked binary serialization used by the SDEX container format.
//
// ByteWriter appends little-endian fixed-width integers, ULEB128 varints and
// length-prefixed strings to an owned buffer; ByteReader consumes the same
// encodings from a non-owning span and throws ParseError on any truncation
// or overlong varint, so a corrupted container can never read out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/errors.hpp"

namespace saintdroid {

/// Append-only binary encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Unsigned LEB128 varint (1-10 bytes).
  void uleb(std::uint64_t v);

  /// Signed value encoded via zig-zag + ULEB128.
  void sleb(std::int64_t v);

  /// ULEB128 length prefix followed by raw bytes.
  void str(std::string_view s);

  /// Raw byte copy with no framing.
  void bytes(std::span<const std::uint8_t> data);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked binary decoder over a non-owning view; the viewed bytes
/// must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t uleb();
  std::int64_t sleb();
  std::string str();

  /// The next `n` bytes as a view into the input (no copy); throws
  /// ParseError when fewer remain.
  std::span<const std::uint8_t> bytes(std::uint64_t n);

  /// Reads a ULEB element count and validates it against the bytes left:
  /// every element encodes to at least `min_element_bytes`, so any larger
  /// claim is a corrupt container (and would otherwise drive unbounded
  /// allocation). Throws ParseError on implausible counts.
  std::uint64_t count(std::uint64_t min_element_bytes = 1);

  /// Bytes consumed so far.
  std::size_t offset() const { return pos_; }

  /// Bytes still unread.
  std::size_t remaining() const { return data_.size() - pos_; }

  bool at_end() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw ParseError("truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace saintdroid
