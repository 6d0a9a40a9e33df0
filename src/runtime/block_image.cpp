#include "runtime/block_image.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "support/assert.hpp"

namespace apcc::runtime {

namespace {

/// Append the running byte total `end` as the next offset-table entry.
void push_offset(std::vector<std::uint32_t>& offsets, std::size_t end) {
  APCC_CHECK(end <= std::numeric_limits<std::uint32_t>::max(),
             "BlockImage arena exceeds 4 GiB");
  offsets.push_back(static_cast<std::uint32_t>(end));
}

}  // namespace

BlockImage::BlockImage(const cfg::Cfg& cfg,
                       const compress::BlockBytes& block_bytes,
                       std::unique_ptr<compress::Codec> codec)
    : codec_(std::move(codec)) {
  APCC_CHECK(codec_ != nullptr, "BlockImage requires a codec");
  APCC_CHECK(block_bytes.size() == cfg.block_count(),
             "one byte string per CFG block required");
  original_offsets_.reserve(block_bytes.size() + 1);
  compressed_offsets_.reserve(block_bytes.size() + 1);
  original_offsets_.push_back(0);
  compressed_offsets_.push_back(0);
  for (const compress::ByteView bytes : block_bytes) {
    const compress::Bytes packed = codec_->compress(bytes);
    compressed_.insert(compressed_.end(), packed.begin(), packed.end());
    push_offset(original_offsets_, original_offsets_.back() + bytes.size());
    push_offset(compressed_offsets_, compressed_.size());
    footprint_.add_block(packed.size(), bytes.size());
  }
  // The compressed arena grew geometrically; drop the slack so the
  // resident size is exactly the bytes held.
  compressed_.shrink_to_fit();
}

compress::ByteView BlockImage::compressed(cfg::BlockId id) const {
  APCC_CHECK(id < block_count(), "block id out of range");
  return compress::ByteView(compressed_)
      .subspan(compressed_offsets_[id],
               compressed_offsets_[id + 1] - compressed_offsets_[id]);
}

double BlockImage::ratio() const {
  const std::uint32_t original = original_offsets_.back();
  return original == 0 ? 1.0
                       : static_cast<double>(compressed_.size()) /
                             static_cast<double>(original);
}

std::uint64_t BlockImage::resident_bytes() const {
  return compressed_.capacity() +
         (original_offsets_.capacity() + compressed_offsets_.capacity()) *
             sizeof(std::uint32_t);
}

void BlockImage::verify_block(cfg::BlockId id,
                              compress::ByteView expected) const {
  const compress::Bytes roundtrip =
      codec_->decompress(compressed(id), original_size(id));
  APCC_CHECK(std::ranges::equal(roundtrip, expected),
             "codec round-trip mismatch on block " + std::to_string(id));
}

BlockImage make_block_image(
    const cfg::Cfg& cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    compress::CodecKind codec_kind) {
  compress::BlockBytes bytes;
  for (const auto& b : cfg.blocks()) bytes.push_back(provider(b));
  auto codec = compress::make_codec(codec_kind, bytes);
  return BlockImage(cfg, bytes, std::move(codec));
}

}  // namespace apcc::runtime
