#include "serving/cache.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/strings.hpp"

namespace apcc::serving {

std::vector<std::size_t> plan_evictions(std::span<const CacheEntry> entries,
                                        std::uint64_t budget_bytes,
                                        std::uint64_t clock) {
  std::uint64_t resident = 0;
  for (const CacheEntry& entry : entries) resident += entry.bytes;
  if (resident <= budget_bytes) return {};

  // Score every unpinned entry: stale resident bytes per unit of
  // rebuild cost. Scored in long double so bytes * age cannot wrap;
  // the comparator's (score, last_use, index) key makes the order a
  // deterministic function of the inputs alone.
  struct Candidate {
    std::size_t index;
    long double score;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CacheEntry& entry = entries[i];
    if (entry.pinned || entry.bytes == 0) continue;
    const std::uint64_t age =
        clock >= entry.last_use ? clock - entry.last_use : 0;
    const long double cost =
        static_cast<long double>(std::max<std::uint64_t>(entry.rebuild_cost, 1));
    candidates.push_back(
        {i, static_cast<long double>(age) * entry.bytes / cost});
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (entries[a.index].last_use != entries[b.index].last_use) {
                return entries[a.index].last_use < entries[b.index].last_use;
              }
              return a.index < b.index;
            });

  std::vector<std::size_t> victims;
  for (const Candidate& candidate : candidates) {
    if (resident <= budget_bytes) break;
    victims.push_back(candidate.index);
    resident -= entries[candidate.index].bytes;
  }
  return victims;
}

std::uint64_t estimate_image_cost(std::uint64_t original_bytes) {
  // Codec training + per-block compression touch every original byte
  // (some codecs several times); one abstract work unit per byte keeps
  // the estimate deterministic and comparable across workloads.
  return std::max<std::uint64_t>(original_bytes, 1);
}

std::uint64_t estimate_frontier_cost(std::size_t exited_blocks, unsigned k) {
  // One k-bounded BFS per block the workload's trace exits: each BFS
  // visits O(frontier) blocks, which grows with k. (k + 1) keeps k = 0
  // geometry from costing nothing.
  return std::max<std::uint64_t>(
      static_cast<std::uint64_t>(exited_blocks) * (k + 1), 1);
}

namespace {

void format_kind(std::ostringstream& out, const char* label,
                 const ArtifactStats& s) {
  out << label << s.built << " built, " << s.borrows << " borrow(s), "
      << s.hits << " hit(s) / " << s.misses << " miss(es) / " << s.rebuilds
      << " rebuild(s), " << s.evictions << " eviction(s) ["
      << human_bytes(s.evicted_bytes) << " evicted], " << s.entries
      << " resident entr(ies) [" << human_bytes(s.bytes) << "]\n";
}

}  // namespace

std::string format_cache_stats(const CacheStats& stats) {
  std::ostringstream out;
  format_kind(out, "cache images:    ", stats.images);
  format_kind(out, "cache frontiers: ", stats.frontiers);
  return out.str();
}

}  // namespace apcc::serving
