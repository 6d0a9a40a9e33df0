// BlockImage: per-basic-block compressed storage.
//
// Built once before execution: every block's bytes are compressed with the
// chosen codec and laid out in the fixed compressed code area (paper §5 --
// "we start with a memory image wherein all basic blocks are stored in
// their compressed form; note that this is the minimum memory required to
// store the application code").
#pragma once

#include <functional>
#include <memory>

#include "cfg/cfg.hpp"
#include "compress/codec.hpp"

namespace apcc::runtime {

/// One block's original and compressed bytes.
struct ImageBlock {
  compress::Bytes original;
  compress::Bytes compressed;
};

/// The compressed program image. Owns the codec (trained codecs embed
/// dictionaries that decompression needs for the lifetime of the run).
class BlockImage {
 public:
  /// Compress `block_bytes[i]` as block i. `block_bytes.size()` must equal
  /// `cfg.block_count()`.
  BlockImage(const cfg::Cfg& cfg, std::vector<compress::Bytes> block_bytes,
             std::unique_ptr<compress::Codec> codec);

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] const ImageBlock& block(cfg::BlockId id) const;

  [[nodiscard]] std::uint64_t original_size(cfg::BlockId id) const;
  [[nodiscard]] std::uint64_t compressed_size(cfg::BlockId id) const;

  [[nodiscard]] const compress::Codec& codec() const { return *codec_; }

  /// (compressed, original) size pairs in block order, for layout_slots.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  slot_sizes() const;

  /// Whole-image compression ratio (compressed/original, < 1 is good).
  [[nodiscard]] double ratio() const;

  /// Approximate resident size of this image: every block's original +
  /// compressed bytes plus the per-block bookkeeping. What an artifact
  /// cache should budget against (serving::Service::cache_stats()).
  [[nodiscard]] std::uint64_t approx_bytes() const;

  /// Decompress block `id` and verify it matches the original; throws on
  /// mismatch. Tests call it from an engine event sink to check every
  /// block a run decompresses.
  void verify_block(cfg::BlockId id) const;

 private:
  std::vector<ImageBlock> blocks_;
  std::unique_ptr<compress::Codec> codec_;
};

/// Convenience: build the image for a CFG whose blocks' bytes come from a
/// provider callback (program images, synthetic bytes, ...).
[[nodiscard]] BlockImage make_block_image(
    const cfg::Cfg& cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    compress::CodecKind codec_kind);

}  // namespace apcc::runtime
