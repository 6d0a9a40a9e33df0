// LZSS: LZ77-family sliding-window codec.
//
// Stream format: a flag bit per token (1 = literal byte, 0 = match),
// matches are (offset-1: 12 bits, length-3: 4 bits) against a 4 KiB
// window, so match lengths span [3, 18]. Greedy parsing with a 3-byte
// hash-chain matcher. Good ratio on instruction streams thanks to
// repeated opcode/register idioms; moderate decode cost.
#pragma once

#include "compress/codec.hpp"

namespace apcc::compress {

class LzssCodec final : public Codec {
 public:
  LzssCodec();

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kLzss);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;

  static constexpr std::size_t kWindowSize = 4096;
  static constexpr std::size_t kMinMatch = 3;
  static constexpr std::size_t kMaxMatch = 18;
};

}  // namespace apcc::compress
