// CodePack-style halfword dictionary codec.
//
// Models IBM CodePack (Kemp et al., cited as [14] in the paper): the image
// is split into 16-bit units; frequent units are replaced by short
// dictionary indices, the rest are escaped raw. Two dictionary classes:
//
//   tag 00 + 4-bit index   the 16 hottest halfwords       (6 bits)
//   tag 01 + 8-bit index   the next 256 halfwords         (10 bits)
//   tag 1  + 16 raw bits   everything else                (17 bits)
//
// Dictionaries are trained once over the program image and shared by
// compressor and decompressor (they live in ROM on real hardware), so
// streams carry no header. Decode is tag-dispatch table lookups -- the
// cheapest real codec here, mirroring why CodePack suited hardware.
#pragma once

#include <unordered_map>

#include "compress/codec.hpp"

namespace apcc::compress {

class CodePackCodec final : public Codec {
 public:
  /// Train dictionaries over `training_blocks` (halfword frequencies).
  explicit CodePackCodec(const BlockBytes& training_blocks);

  [[nodiscard]] std::string_view name() const override {
    return codec_kind_name(CodecKind::kCodePack);
  }
  [[nodiscard]] Bytes compress(ByteView input) const override;
  [[nodiscard]] Bytes decompress(ByteView input,
                                 std::size_t original_size) const override;

  static constexpr std::size_t kDictASize = 16;
  static constexpr std::size_t kDictBSize = 256;

  /// Number of trained entries (for introspection/tests).
  [[nodiscard]] std::size_t dict_a_size() const { return dict_a_.size(); }
  [[nodiscard]] std::size_t dict_b_size() const { return dict_b_.size(); }

 private:
  std::vector<std::uint16_t> dict_a_;
  std::vector<std::uint16_t> dict_b_;
  // halfword -> (dictionary class 0/1, index)
  std::unordered_map<std::uint16_t, std::pair<int, std::uint16_t>> lookup_;
};

}  // namespace apcc::compress
