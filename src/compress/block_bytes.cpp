#include "compress/block_bytes.hpp"

#include <limits>

#include "support/assert.hpp"

namespace apcc::compress {

BlockBytes::BlockBytes(const std::vector<Bytes>& blocks) {
  std::size_t bytes = 0;
  for (const Bytes& block : blocks) bytes += block.size();
  reserve(blocks.size(), bytes);
  for (const Bytes& block : blocks) push_back(block);
}

BlockBytes::operator std::vector<Bytes>() const {
  std::vector<Bytes> blocks;
  blocks.reserve(size());
  for (const ByteView block : *this) {
    blocks.emplace_back(block.begin(), block.end());
  }
  return blocks;
}

void BlockBytes::reserve(std::size_t blocks, std::size_t bytes) {
  arena_.reserve(arena_.size() + bytes);
  offsets_.reserve((offsets_.empty() ? 1 : offsets_.size()) + blocks);
}

void BlockBytes::push_back(ByteView block) {
  APCC_CHECK(block.size() <=
                 std::numeric_limits<std::uint32_t>::max() - arena_.size(),
             "BlockBytes arena exceeds 4 GiB");
  if (offsets_.empty()) offsets_.push_back(0);
  arena_.insert(arena_.end(), block.begin(), block.end());
  offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
}

}  // namespace apcc::compress
