// Field-split codec: instruction-aware stream separation + Huffman.
//
// A classic code-compression trick (cf. Lekatsas/Wolf and the stream
// separation in several DATE/CASES-era compressors): fixed-width
// instruction words have per-field statistics -- opcodes cluster, hot
// registers repeat, immediates are small -- so coding each byte *lane*
// of the 32-bit word with its own canonical Huffman table beats one
// table over the interleaved stream.
//
// Lane l of an input holds bytes {l, l+4, l+8, ...}; each lane gets a
// shared CanonicalCode trained over the whole image. Streams carry no
// headers; lanes are concatenated bit-wise in lane order with no
// alignment between them (the decoder knows each lane's length from the
// original size). Inputs whose size is not a multiple of 4 still work:
// lane l simply has ceil((n-l)/4) symbols.
#pragma once

#include <array>

#include "compress/codec.hpp"
#include "compress/huffman.hpp"

namespace apcc::compress {

class FieldSplitCodec final : public Codec {
 public:
  static constexpr std::size_t kLanes = 4;

  /// Train one table per byte lane over `training_blocks`.
  explicit FieldSplitCodec(const BlockBytes& training_blocks);

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kFieldSplit);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;

  /// Expected bits/symbol of lane `l` under its training distribution
  /// (introspection for tests: lane 3, the opcode-carrying byte in
  /// ERISC-32 little-endian words, should code tightest).
  [[nodiscard]] double lane_expected_bits(std::size_t lane) const;

 private:
  [[nodiscard]] static std::size_t lane_length(std::size_t original_size,
                                               std::size_t lane);

  std::array<std::unique_ptr<CanonicalCode>, kLanes> lanes_;
  std::array<std::array<std::uint64_t, kAlphabetSize>, kLanes> freqs_{};
};

}  // namespace apcc::compress
