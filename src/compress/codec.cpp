#include "compress/codec.hpp"

#include <cmath>

#include "compress/codepack.hpp"
#include "compress/fieldsplit.hpp"
#include "compress/huffman.hpp"
#include "compress/lzss.hpp"
#include "compress/null_codec.hpp"
#include "compress/rle_codec.hpp"
#include "support/assert.hpp"

namespace apcc::compress {

std::uint64_t CodecCosts::decompress_cycles(std::size_t original_bytes) const {
  return decompress_fixed_cycles +
         static_cast<std::uint64_t>(
             std::llround(decompress_cycles_per_byte *
                          static_cast<double>(original_bytes)));
}

std::uint64_t CodecCosts::compress_cycles(std::size_t original_bytes) const {
  return compress_fixed_cycles +
         static_cast<std::uint64_t>(
             std::llround(compress_cycles_per_byte *
                          static_cast<double>(original_bytes)));
}

std::span<const CodecKind> all_codec_kinds() {
  static constexpr auto kKinds = values_of(kCodecNames);
  return kKinds;
}

std::unique_ptr<Codec> make_codec(CodecKind kind,
                                  const BlockBytes& training_blocks) {
  switch (kind) {
    case CodecKind::kNull:
      return std::make_unique<NullCodec>();
    case CodecKind::kMtfRle:
      return std::make_unique<MtfRleCodec>();
    case CodecKind::kHuffman:
      return std::make_unique<HuffmanCodec>();
    case CodecKind::kSharedHuffman:
      return std::make_unique<SharedHuffmanCodec>(training_blocks);
    case CodecKind::kLzss:
      return std::make_unique<LzssCodec>();
    case CodecKind::kCodePack:
      return std::make_unique<CodePackCodec>(training_blocks);
    case CodecKind::kFieldSplit:
      return std::make_unique<FieldSplitCodec>(training_blocks);
  }
  APCC_ASSERT_FAIL("unknown codec kind");
}

double compression_ratio(const Codec& codec, const BlockBytes& blocks) {
  const std::uint64_t original = blocks.total_bytes();
  std::uint64_t compressed = 0;
  for (const ByteView block : blocks) {
    compressed += codec.compress(block).size();
  }
  return original == 0 ? 1.0
                       : static_cast<double>(compressed) /
                             static_cast<double>(original);
}

}  // namespace apcc::compress
