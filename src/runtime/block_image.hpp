// BlockImage: per-basic-block compressed storage.
//
// Built once before execution: every block's bytes are compressed with the
// chosen codec and laid out in the fixed compressed code area (paper §5 --
// "we start with a memory image wherein all basic blocks are stored in
// their compressed form; note that this is the minimum memory required to
// store the application code").
//
// The image is read-only once built, so it is stored flat: one arena of
// every block's compressed bytes, back to back in block order, and two
// (B+1)-entry prefix tables. Block b's compressed bytes are
// arena[compressed_offsets[b], compressed_offsets[b+1]), and its original
// size is original_offsets[b+1] - original_offsets[b]; the original bytes
// themselves are not kept. Three heap arrays per image, whatever the
// block count, and resident_bytes() is their exact size. Every engine
// cell reads the block sizes and the footprint here in place.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "cfg/cfg.hpp"
#include "compress/codec.hpp"
#include "memory/layout.hpp"
#include "support/assert.hpp"

namespace apcc::runtime {

/// The compressed program image. Owns the codec (trained codecs embed
/// dictionaries that decompression needs for the lifetime of the run).
class BlockImage {
 public:
  /// Compress `block_bytes[i]` as block i into the image's arena.
  /// `block_bytes.size()` must equal `cfg.block_count()`.
  BlockImage(const cfg::Cfg& cfg, const compress::BlockBytes& block_bytes,
             std::unique_ptr<compress::Codec> codec);

  [[nodiscard]] std::size_t block_count() const {
    return original_offsets_.size() - 1;
  }

  /// Block `id`'s compressed bytes: a view into the image's arena, valid
  /// for the image's lifetime.
  [[nodiscard]] compress::ByteView compressed(cfg::BlockId id) const;

  [[nodiscard]] std::uint64_t original_size(cfg::BlockId id) const {
    APCC_CHECK(id < block_count(), "block id out of range");
    return original_offsets_[id + 1] - original_offsets_[id];
  }
  [[nodiscard]] std::uint64_t compressed_size(cfg::BlockId id) const {
    return compressed(id).size();
  }

  [[nodiscard]] const compress::Codec& codec() const { return *codec_; }

  /// The compressed-area, original and all-decompressed sums a
  /// memory::MemoryLayout is built from, summed when the image was.
  [[nodiscard]] const memory::ImageFootprint& footprint() const {
    return footprint_;
  }

  /// Whole-image compression ratio (compressed/original, < 1 is good).
  [[nodiscard]] double ratio() const;

  /// Exact heap size of the image's arena and two offset tables. What
  /// an artifact cache budgets against (serving::Service::cache_stats());
  /// the codec's own tables are not counted.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// Decompress block `id` and check that it decodes to `expected`, the
  /// block's original bytes; throws on mismatch. Tests call it from an
  /// engine event sink to check every block a run decompresses.
  void verify_block(cfg::BlockId id, compress::ByteView expected) const;

 private:
  compress::Bytes compressed_;  // every block's compressed bytes
  std::vector<std::uint32_t> original_offsets_;    // block_count() + 1
  std::vector<std::uint32_t> compressed_offsets_;  // block_count() + 1
  memory::ImageFootprint footprint_;
  std::unique_ptr<compress::Codec> codec_;
};

/// Convenience: build the image for a CFG whose blocks' bytes come from a
/// provider callback (program images, synthetic bytes, ...), appended to
/// one BlockBytes that trains the codec and fills the image.
[[nodiscard]] BlockImage make_block_image(
    const cfg::Cfg& cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    compress::CodecKind codec_kind);

}  // namespace apcc::runtime
