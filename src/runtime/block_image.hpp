// BlockImage: per-basic-block compressed storage.
//
// Built once before execution: every block's bytes are compressed with the
// chosen codec and laid out in the fixed compressed code area (paper §5 --
// "we start with a memory image wherein all basic blocks are stored in
// their compressed form; note that this is the minimum memory required to
// store the application code").
//
// The image is read-only once built, so it is stored flat: one arena of
// every block's original bytes and one of every block's compressed bytes,
// back to back in block order, each indexed by a (B+1)-entry offset table.
// Block b's bytes are arena[offsets[b], offsets[b+1]). Four heap arrays
// per image, whatever the block count, and resident_bytes() is their
// exact size.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "cfg/cfg.hpp"
#include "compress/codec.hpp"

namespace apcc::runtime {

/// The compressed program image. Owns the codec (trained codecs embed
/// dictionaries that decompression needs for the lifetime of the run).
class BlockImage {
 public:
  /// Compress `block_bytes[i]` as block i, copying the bytes into the
  /// image's arenas. `block_bytes.size()` must equal `cfg.block_count()`.
  BlockImage(const cfg::Cfg& cfg, std::span<const compress::Bytes> block_bytes,
             std::unique_ptr<compress::Codec> codec);

  [[nodiscard]] std::size_t block_count() const {
    return original_offsets_.size() - 1;
  }

  /// Block `id`'s original / compressed bytes: views into the image's
  /// arenas, valid for the image's lifetime.
  [[nodiscard]] compress::ByteView original(cfg::BlockId id) const;
  [[nodiscard]] compress::ByteView compressed(cfg::BlockId id) const;

  [[nodiscard]] std::uint64_t original_size(cfg::BlockId id) const {
    return original(id).size();
  }
  [[nodiscard]] std::uint64_t compressed_size(cfg::BlockId id) const {
    return compressed(id).size();
  }

  [[nodiscard]] const compress::Codec& codec() const { return *codec_; }

  /// (compressed, original) size pairs in block order, for layout_slots.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  slot_sizes() const;

  /// Whole-image compression ratio (compressed/original, < 1 is good).
  [[nodiscard]] double ratio() const;

  /// Exact heap size of the image's two arenas and two offset tables.
  /// What an artifact cache budgets against (serving::Service::
  /// cache_stats()); the codec's own tables are not counted.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// Decompress block `id` and verify it matches the original; throws on
  /// mismatch. Tests call it from an engine event sink to check every
  /// block a run decompresses.
  void verify_block(cfg::BlockId id) const;

 private:
  compress::Bytes original_;    // every block's bytes, in block order
  compress::Bytes compressed_;  // every block's compressed bytes
  std::vector<std::uint32_t> original_offsets_;    // block_count() + 1
  std::vector<std::uint32_t> compressed_offsets_;  // block_count() + 1
  std::unique_ptr<compress::Codec> codec_;
};

/// Convenience: build the image for a CFG whose blocks' bytes come from a
/// provider callback (program images, synthetic bytes, ...).
[[nodiscard]] BlockImage make_block_image(
    const cfg::Cfg& cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    compress::CodecKind codec_kind);

}  // namespace apcc::runtime
