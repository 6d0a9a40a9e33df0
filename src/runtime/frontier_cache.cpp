#include "runtime/frontier_cache.hpp"

#include <climits>

#include "support/assert.hpp"

namespace apcc::runtime {

namespace {

// Set in offsets_[b] when block b's list was not built. The low bits
// still hold where b's list would start, which is where b - 1's ends.
constexpr std::uint32_t kUnbuilt = 1u << 31;

}  // namespace

FrontierCache::FrontierCache(const cfg::Cfg& cfg, unsigned k)
    : cfg_(cfg), k_(k) {}

std::span<const cfg::BlockId> FrontierCache::candidates(
    cfg::BlockId block) const {
  APCC_CHECK(materialized(), "FrontierCache read before materialize()");
  APCC_CHECK(block < cfg_.block_count(), "block id out of range");
  const std::uint32_t begin = offsets_[block];
  APCC_CHECK((begin & kUnbuilt) == 0,
             "FrontierCache has no list for a block its trace never exits");
  return {ids_.data() + begin,
          ids_.data() + (offsets_[block + 1] & ~kUnbuilt)};
}

void FrontierCache::materialize() { build(nullptr); }

void FrontierCache::materialize(const cfg::BlockTrace& trace) {
  const std::vector<bool> exited = cfg::exited_blocks(cfg_, trace);
  build(&exited);
}

void FrontierCache::build(const std::vector<bool>* exited) {
  if (materialized()) return;
  // Built into fresh arrays, swapped in only once complete.
  const std::size_t n = cfg_.block_count();
  std::vector<cfg::BlockId> ids;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<unsigned> dist(n, UINT_MAX);
  std::vector<cfg::FrontierEntry> list;
  for (cfg::BlockId b = 0; b < n; ++b) {
    if (exited != nullptr && !(*exited)[b]) {
      offsets.back() |= kUnbuilt;
    } else {
      cfg::frontier_distances(cfg_, b, k_, dist, list);
      for (const cfg::FrontierEntry& entry : list) ids.push_back(entry.block);
      APCC_CHECK(ids.size() < kUnbuilt, "FrontierCache exceeds 2^31 entries");
    }
    offsets.push_back(static_cast<std::uint32_t>(ids.size()));
  }
  ids.shrink_to_fit();  // resident size is exactly the lists
  ids_ = std::move(ids);
  offsets_ = std::move(offsets);
}

std::uint64_t FrontierCache::resident_bytes() const {
  return ids_.capacity() * sizeof(cfg::BlockId) +
         offsets_.capacity() * sizeof(std::uint32_t);
}

}  // namespace apcc::runtime
