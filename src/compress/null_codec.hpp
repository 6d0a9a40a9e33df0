// Identity codec: output == input. Baseline plumbing and the degenerate
// point of every codec comparison.
#pragma once

#include "compress/codec.hpp"

namespace apcc::compress {

class NullCodec final : public Codec {
 public:
  NullCodec();

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kNull);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;
};

}  // namespace apcc::compress
