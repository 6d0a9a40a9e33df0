#include "runtime/block_image.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "support/assert.hpp"

namespace apcc::runtime {

namespace {

/// The arena end as the next offset-table entry.
std::uint32_t arena_offset(const compress::Bytes& arena) {
  APCC_CHECK(arena.size() <= std::numeric_limits<std::uint32_t>::max(),
             "BlockImage arena exceeds 4 GiB");
  return static_cast<std::uint32_t>(arena.size());
}

}  // namespace

BlockImage::BlockImage(const cfg::Cfg& cfg,
                       std::span<const compress::Bytes> block_bytes,
                       std::unique_ptr<compress::Codec> codec)
    : codec_(std::move(codec)) {
  APCC_CHECK(codec_ != nullptr, "BlockImage requires a codec");
  APCC_CHECK(block_bytes.size() == cfg.block_count(),
             "one byte string per CFG block required");
  std::size_t total = 0;
  for (const compress::Bytes& bytes : block_bytes) total += bytes.size();
  original_.reserve(total);
  original_offsets_.reserve(block_bytes.size() + 1);
  compressed_offsets_.reserve(block_bytes.size() + 1);
  original_offsets_.push_back(0);
  compressed_offsets_.push_back(0);
  for (const compress::Bytes& bytes : block_bytes) {
    original_.insert(original_.end(), bytes.begin(), bytes.end());
    const compress::Bytes packed = codec_->compress(bytes);
    compressed_.insert(compressed_.end(), packed.begin(), packed.end());
    original_offsets_.push_back(arena_offset(original_));
    compressed_offsets_.push_back(arena_offset(compressed_));
  }
  // The compressed arena grew geometrically; drop the slack so the
  // resident size is exactly the bytes held.
  compressed_.shrink_to_fit();
}

compress::ByteView BlockImage::original(cfg::BlockId id) const {
  APCC_CHECK(id < block_count(), "block id out of range");
  return compress::ByteView(original_)
      .subspan(original_offsets_[id],
               original_offsets_[id + 1] - original_offsets_[id]);
}

compress::ByteView BlockImage::compressed(cfg::BlockId id) const {
  APCC_CHECK(id < block_count(), "block id out of range");
  return compress::ByteView(compressed_)
      .subspan(compressed_offsets_[id],
               compressed_offsets_[id + 1] - compressed_offsets_[id]);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> BlockImage::slot_sizes()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sizes;
  sizes.reserve(block_count());
  for (cfg::BlockId b = 0; b < block_count(); ++b) {
    sizes.emplace_back(compressed_size(b), original_size(b));
  }
  return sizes;
}

double BlockImage::ratio() const {
  return original_.empty() ? 1.0
                           : static_cast<double>(compressed_.size()) /
                                 static_cast<double>(original_.size());
}

std::uint64_t BlockImage::resident_bytes() const {
  return original_.capacity() + compressed_.capacity() +
         (original_offsets_.capacity() + compressed_offsets_.capacity()) *
             sizeof(std::uint32_t);
}

void BlockImage::verify_block(cfg::BlockId id) const {
  const compress::ByteView want = original(id);
  const compress::Bytes roundtrip =
      codec_->decompress(compressed(id), want.size());
  APCC_CHECK(std::ranges::equal(roundtrip, want),
             "codec round-trip mismatch on block " + std::to_string(id));
}

BlockImage make_block_image(
    const cfg::Cfg& cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    compress::CodecKind codec_kind) {
  std::vector<compress::Bytes> bytes;
  bytes.reserve(cfg.block_count());
  for (const auto& b : cfg.blocks()) {
    bytes.push_back(provider(b));
  }
  auto codec = compress::make_codec(codec_kind, bytes);
  return BlockImage(cfg, bytes, std::move(codec));
}

}  // namespace apcc::runtime
