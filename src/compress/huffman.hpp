// Canonical Huffman coding over the byte alphabet.
//
// Two operating modes:
//
//  * Per-stream (HuffmanCodec): each compressed stream carries its own
//    code-length table (256 x 4-bit lengths = 128 bytes). Correct but the
//    header dominates for small basic blocks.
//
//  * Shared model (SharedHuffmanCodec): one table is trained over the
//    whole program image at build time and held by both compressor and
//    decompressor, so streams carry no header. This matches how embedded
//    code compressors deploy Huffman tables in ROM and is the default
//    codec for APCC experiments.
//
// Codes are canonical (sorted by (length, symbol)), length-limited to
// kMaxCodeLength bits, and decoded with a deflate-style two-level lookup
// table: one peek of kPrimaryBits resolves every code up to that length
// in a single table hit, and longer codes fall through to a per-prefix
// subtable. The first-code/offset method is kept as decode_reference()
// so differential tests can pin the table decoder against it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "compress/codec.hpp"
#include "support/bitstream.hpp"

namespace apcc::compress {

inline constexpr unsigned kMaxCodeLength = 15;
inline constexpr std::size_t kAlphabetSize = 256;

/// Code lengths per symbol; 0 means the symbol does not occur.
using CodeLengths = std::array<std::uint8_t, kAlphabetSize>;

/// Build length-limited Huffman code lengths from symbol frequencies.
/// Symbols with zero frequency get length 0. If only one distinct symbol
/// occurs it gets length 1.
[[nodiscard]] CodeLengths build_code_lengths(
    const std::array<std::uint64_t, kAlphabetSize>& freqs);

/// A realised canonical code: encode and decode tables.
class CanonicalCode {
 public:
  /// `build_decode_tables` = false skips the lookup-table construction
  /// for encode-only uses (the per-stream compressor); decode() then
  /// transparently falls back to the reference decoder.
  explicit CanonicalCode(const CodeLengths& lengths,
                         bool build_decode_tables = true);

  /// Encode one symbol into the writer (the reference path; the batch
  /// encoder below must produce bit-identical streams).
  void encode(apcc::BitWriter& writer, std::uint8_t symbol) const;

  /// Encode every byte of `input`: the (code, length) pairs are
  /// pre-concatenated through a local 64-bit accumulator and flushed to
  /// the writer 32 bits at a time, so the stream costs one write_bits
  /// call per ~32 output bits instead of one per symbol. Bit-identical
  /// to calling encode() per symbol (differential-tested).
  void encode_all(apcc::BitWriter& writer, ByteView input) const;

  /// Decode one symbol from the reader via the two-level lookup table.
  /// Throws CheckError on invalid prefixes (corrupt stream).
  [[nodiscard]] std::uint8_t decode(apcc::BitReader& reader) const {
    if (!tables_built_) return decode_reference(reader);
    const PrimaryEntry e = primary_[reader.peek_bits(kPrimaryBits)];
    if (e.length != 0 && e.length != kSubtableTag) {
      reader.consume_bits(e.length);
      return static_cast<std::uint8_t>(e.payload);
    }
    if (e.length == kSubtableTag) {
      const std::uint32_t window =
          reader.peek_bits(kPrimaryBits + e.sub_bits);
      const SubEntry s =
          sub_[e.payload + (window & ((1u << e.sub_bits) - 1u))];
      if (s.length != 0) {
        reader.consume_bits(s.length);
        return s.symbol;
      }
    }
    throw CheckError("huffman: invalid code prefix (corrupt stream)");
  }

  /// Bit-at-a-time first-code/offset decoder: the pre-table reference
  /// path, kept for differential tests and as executable documentation.
  [[nodiscard]] std::uint8_t decode_reference(apcc::BitReader& reader) const;

  [[nodiscard]] const CodeLengths& lengths() const { return lengths_; }

  /// Expected bits/symbol under the given frequency distribution.
  [[nodiscard]] double expected_bits(
      const std::array<std::uint64_t, kAlphabetSize>& freqs) const;

  /// Primary decode-table width: codes up to this length resolve with one
  /// table hit; longer ones take one extra subtable hit.
  static constexpr unsigned kPrimaryBits = 10;

 private:
  /// Primary table entry. length semantics: 0 = invalid prefix,
  /// 1..kPrimaryBits = direct hit (payload is the symbol),
  /// kSubtableTag = long code (payload is the base index into sub_ and
  /// sub_bits is that subtable's index width).
  struct PrimaryEntry {
    std::uint16_t payload = 0;
    std::uint8_t length = 0;
    std::uint8_t sub_bits = 0;
  };
  static constexpr std::uint8_t kSubtableTag = 0xff;
  /// Subtable entry; length is the full code length (0 = invalid).
  struct SubEntry {
    std::uint8_t symbol = 0;
    std::uint8_t length = 0;
  };

  void build_decode_tables();

  CodeLengths lengths_{};
  std::array<std::uint16_t, kAlphabetSize> codes_{};   // code value per symbol
  // Reference-decoder tables, indexed by code length 1..kMaxCodeLength.
  std::array<std::uint16_t, kMaxCodeLength + 1> first_code_{};
  std::array<std::uint16_t, kMaxCodeLength + 1> first_index_{};
  std::array<std::uint16_t, kMaxCodeLength + 1> count_{};
  std::array<std::uint8_t, kAlphabetSize> sorted_symbols_{};
  std::size_t symbol_count_ = 0;
  // Table-decoder state.
  bool tables_built_ = false;
  std::array<PrimaryEntry, (std::size_t{1} << kPrimaryBits)> primary_{};
  std::vector<SubEntry> sub_;
};

/// Per-stream canonical Huffman codec (self-describing streams).
class HuffmanCodec final : public Codec {
 public:
  HuffmanCodec();

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kHuffman);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;
};

/// Shared-model canonical Huffman codec (table trained over the image).
class SharedHuffmanCodec final : public Codec {
 public:
  /// Train the shared table over `training_blocks`. If no training data
  /// is supplied, falls back to a uniform table (8-bit codes).
  explicit SharedHuffmanCodec(const BlockBytes& training_blocks);

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kSharedHuffman);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;

  [[nodiscard]] const CanonicalCode& code() const { return code_; }

 private:
  CanonicalCode code_;
};

}  // namespace apcc::compress
