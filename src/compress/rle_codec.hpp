// Move-to-front + run-length codec.
//
// MTF maps locality in the byte stream to small values; RLE then encodes
// runs of equal values. Cheap to decode, modest compression -- included
// as the low-cost end of the codec spectrum and as an ablation point.
//
// Stream format, repeated until the original size is reached:
//   run:       0x01 <count-1> <index>            `count` copies of one
//                                                MTF index
//   literals:  0x00 <count-1> <count indices>    a literal block
// Values are MTF indices; decoding reverses the MTF transform. Worst-case
// expansion is 2 bytes per 256 input bytes (the literal-block header).
#pragma once

#include "compress/codec.hpp"

namespace apcc::compress {

class MtfRleCodec final : public Codec {
 public:
  MtfRleCodec();

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kMtfRle);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;
};

}  // namespace apcc::compress
