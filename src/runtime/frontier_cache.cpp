#include "runtime/frontier_cache.hpp"

#include <climits>

#include "support/assert.hpp"

namespace apcc::runtime {

namespace {

/// The entry array's end as the next offset.
std::uint32_t entry_offset(const std::vector<cfg::FrontierEntry>& entries) {
  APCC_CHECK(entries.size() < UINT32_MAX,
             "FrontierCache exceeds 2^32 entries");
  return static_cast<std::uint32_t>(entries.size());
}

}  // namespace

FrontierCache::FrontierCache(const cfg::Cfg& cfg, unsigned k)
    : cfg_(cfg), k_(k) {}

std::span<const cfg::FrontierEntry> FrontierCache::candidates(
    cfg::BlockId block) const {
  APCC_CHECK(block < cfg_.block_count(), "block id out of range");
  if (materialized_) {
    return {entries_.data() + offsets_[block],
            entries_.data() + offsets_[block + 1]};
  }
  if (lazy_.empty()) {
    lazy_.resize(cfg_.block_count());
    dist_scratch_.assign(cfg_.block_count(), UINT_MAX);
  }
  Bounds& bounds = lazy_[block];
  if (bounds.begin == Bounds::kUncomputed) {
    cfg::frontier_distances(cfg_, block, k_, dist_scratch_, list_scratch_);
    const std::uint32_t begin = entry_offset(entries_);
    entries_.insert(entries_.end(), list_scratch_.begin(),
                    list_scratch_.end());
    bounds.end = entry_offset(entries_);
    bounds.begin = begin;
  }
  return {entries_.data() + bounds.begin, entries_.data() + bounds.end};
}

void FrontierCache::materialize() {
  if (materialized_) return;
  // Recompute every list in block order (a pure function of (CFG, k), so
  // lists a lazy phase already computed come out identical) into fresh
  // arrays, swapped in only once complete.
  const std::size_t n = cfg_.block_count();
  std::vector<cfg::FrontierEntry> entries;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<unsigned> dist(n, UINT_MAX);
  std::vector<cfg::FrontierEntry> list;
  for (cfg::BlockId b = 0; b < n; ++b) {
    cfg::frontier_distances(cfg_, b, k_, dist, list);
    entries.insert(entries.end(), list.begin(), list.end());
    offsets.push_back(entry_offset(entries));
  }
  entries.shrink_to_fit();  // resident size is exactly the lists
  entries_ = std::move(entries);
  offsets_ = std::move(offsets);
  // Move-assigning empty vectors releases the lazy phase's storage
  // (assigning `{}` would keep the capacity).
  lazy_ = std::vector<Bounds>();
  dist_scratch_ = std::vector<unsigned>();
  list_scratch_ = std::vector<cfg::FrontierEntry>();
  materialized_ = true;
}

std::uint64_t FrontierCache::resident_bytes() const {
  return (entries_.capacity() + list_scratch_.capacity()) *
             sizeof(cfg::FrontierEntry) +
         offsets_.capacity() * sizeof(std::uint32_t) +
         lazy_.capacity() * sizeof(Bounds) +
         dist_scratch_.capacity() * sizeof(unsigned);
}

}  // namespace apcc::runtime
