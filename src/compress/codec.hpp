// Codec interface for basic-block compression.
//
// The paper is codec-agnostic ("several compression and decompression
// strategies"); APCC ships seven codecs spanning the classic code
// compression design space:
//
//   kNull          identity (baseline / plumbing tests)
//   kMtfRle        move-to-front + run-length, cheap and weak
//   kHuffman       canonical Huffman, per-stream table header
//   kSharedHuffman canonical Huffman with one table trained over the whole
//                  image (no per-block header -- the right choice for
//                  small basic blocks)
//   kLzss          LZ77-family sliding window
//   kCodePack      IBM CodePack-style halfword dictionary (two dictionary
//                  classes + raw escape), trained over the image
//   kFieldSplit    per-byte-lane canonical Huffman (instruction field
//                  separation), trained over the image
//
// The first three are the seed-era baselines: none of them shrinks the
// suite's code (E4, `apcc_reproduce e4_codecs`). docs/PERFORMANCE.md
// ("Pruned codecs") records the data-line codecs that were measured and
// removed.
//
// Codecs carry a cycle cost model consumed by the simulator; costs scale
// with the *original* byte count, matching how decompressors are bounded
// in practice.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "compress/block_bytes.hpp"
#include "support/names.hpp"

namespace apcc::compress {

/// Cycle cost model for the simulator. Costs are per *original* byte.
struct CodecCosts {
  double decompress_cycles_per_byte = 4.0;
  double compress_cycles_per_byte = 8.0;
  std::uint64_t decompress_fixed_cycles = 64;
  std::uint64_t compress_fixed_cycles = 64;

  [[nodiscard]] std::uint64_t decompress_cycles(std::size_t original_bytes) const;
  [[nodiscard]] std::uint64_t compress_cycles(std::size_t original_bytes) const;
};

/// Abstract lossless codec. Implementations must satisfy, for all inputs:
///   decompress(compress(x), x.size()) == x.
class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Compress `input`. Never fails; may expand incompressible input.
  [[nodiscard]] virtual Bytes compress(ByteView input) const = 0;

  /// Decompress `input` into exactly `original_size` bytes. Throws
  /// CheckError on corrupt streams.
  [[nodiscard]] virtual Bytes decompress(ByteView input,
                                         std::size_t original_size) const = 0;

  [[nodiscard]] virtual const CodecCosts& costs() const { return costs_; }
  void set_costs(const CodecCosts& costs) { costs_ = costs; }

 protected:
  CodecCosts costs_{};
};

/// Selector for make_codec.
enum class CodecKind : std::uint8_t {
  kNull,
  kMtfRle,
  kHuffman,
  kSharedHuffman,
  kLzss,
  kCodePack,
  kFieldSplit,
};

inline constexpr NamedValue<CodecKind> kCodecNames[] = {
    {CodecKind::kNull, "null"},
    {CodecKind::kMtfRle, "mtf-rle"},
    {CodecKind::kHuffman, "huffman"},
    {CodecKind::kSharedHuffman, "huffman-shared"},
    {CodecKind::kLzss, "lzss"},
    {CodecKind::kCodePack, "codepack"},
    {CodecKind::kFieldSplit, "field-split"},
};

[[nodiscard]] inline const char* codec_kind_name(CodecKind kind) {
  return name_of(kCodecNames, kind);
}

/// Every codec kind, in enum order: the name table's rows, which the
/// benches and the "every codec" tests iterate.
[[nodiscard]] std::span<const CodecKind> all_codec_kinds();

/// Construct a codec. `training_blocks` holds the byte strings the codec
/// will later see (typically all basic blocks of the image); only the
/// trained codecs (kSharedHuffman, kCodePack, kFieldSplit) read it.
[[nodiscard]] std::unique_ptr<Codec> make_codec(
    CodecKind kind, const BlockBytes& training_blocks = {});

/// Sum of compressed sizes divided by sum of original sizes (< 1 is good).
[[nodiscard]] double compression_ratio(const Codec& codec,
                                       const BlockBytes& blocks);

}  // namespace apcc::compress
