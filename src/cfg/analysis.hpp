// Graph analyses over the CFG.
//
// The load-bearing primitive for the paper is `frontier_within`: the set
// of blocks whose entry is at most k edges away from the exit of a given
// block. It drives both k-edge pre-decompression variants (§4). The rest
// (RPO, dominators, natural loops) supports workload characterisation,
// static prediction and tests.
#pragma once

#include <optional>
#include <vector>

#include "cfg/cfg.hpp"

namespace apcc::cfg {

/// Blocks in reverse post-order from the entry. Unreachable blocks are
/// appended at the end in id order so every block appears exactly once.
[[nodiscard]] std::vector<BlockId> reverse_post_order(const Cfg& cfg);

/// Immediate dominators (Cooper–Harvey–Kennedy iterative algorithm).
/// idom[entry] == entry; unreachable blocks get kInvalidBlock.
[[nodiscard]] std::vector<BlockId> immediate_dominators(const Cfg& cfg);

/// True if `a` dominates `b` under the given idom tree.
[[nodiscard]] bool dominates(const std::vector<BlockId>& idom, BlockId a,
                             BlockId b);

/// A natural loop: back edge target (header) plus its body blocks.
struct NaturalLoop {
  BlockId header = kInvalidBlock;
  std::vector<BlockId> body;  // sorted, includes header

  [[nodiscard]] bool contains(BlockId b) const;
};

/// All natural loops (one per back edge, loops with the same header are
/// merged).
[[nodiscard]] std::vector<NaturalLoop> natural_loops(const Cfg& cfg);

/// Loop nesting depth per block (0 = not in any loop).
[[nodiscard]] std::vector<unsigned> loop_depths(const Cfg& cfg);

/// Blocks whose entry is reachable from the exit of `from` by traversing
/// between 1 and k edges (paper §4: "at most k edges away from the exit of
/// the currently processed block"). `from` itself is included only if a
/// cycle of length <= k returns to it. Sorted by block id.
[[nodiscard]] std::vector<BlockId> frontier_within(const Cfg& cfg,
                                                   BlockId from, unsigned k);

/// A frontier block together with its distance from the exit of the
/// query block (the number of edges on the shortest path, in [1, k]).
struct FrontierEntry {
  BlockId block = kInvalidBlock;
  unsigned distance = 0;
};

/// `frontier_within` plus each block's edge distance, from one bounded
/// BFS, sorted by (distance, id) -- the planner's request order -- and
/// written into `out`. The blocks are exactly frontier_within(cfg, from,
/// k), and each distance equals edge_distance(cfg, from, block).
/// `dist` is caller-owned scratch: block_count() entries, all UINT_MAX,
/// restored before return. The BFS touches only the frontier and its
/// out-edges, so a list costs O(frontier), not O(B), and filling every
/// block's list (FrontierCache::materialize) is not O(B^2).
void frontier_distances(const Cfg& cfg, BlockId from, unsigned k,
                        std::vector<unsigned>& dist,
                        std::vector<FrontierEntry>& out);

/// Minimum number of edges on a non-empty path from `from` to `to`;
/// nullopt if unreachable. For from == to this is the shortest cycle
/// through `from` (nullopt when no cycle returns to it), consistent with
/// frontier_within's treatment of self-reachability.
[[nodiscard]] std::optional<unsigned> edge_distance(const Cfg& cfg,
                                                    BlockId from, BlockId to);

/// Expected-visit score of each block within k steps of a Markov walk
/// starting at `from` (edge probabilities must be normalised). Used by the
/// profile-guided predictor of pre-decompress-single: the block with the
/// highest score among the frontier is the predicted next decompression
/// target. Scores can exceed 1 for blocks revisited by short cycles.
struct ReachScore {
  BlockId block = kInvalidBlock;
  double score = 0.0;
  unsigned min_distance = 0;
};

/// Caller-owned scratch for reach_scores, reusable across calls and
/// graphs. Between calls its three per-block arrays are all zero:
/// reach_scores grows them to the graph's block count when they are
/// shorter and restores every entry it writes before it returns.
struct ReachScratch {
  std::vector<double> mass;   // the walk's mass per block, this round
  std::vector<double> next;   // ... next round
  std::vector<double> score;  // mass summed over the rounds so far
  std::vector<BlockId> live;     // blocks whose `mass` was written
  std::vector<BlockId> touched;  // blocks whose `next` was written
};

/// Every block with a positive score, with its score and the first
/// round that reached it, sorted by descending score then id, written
/// into `out`. Each round visits only the blocks holding mass, in
/// ascending id, so a call costs O(k x reach) rather than O(k x B);
/// each block's sums run in the order a sweep over every block would
/// run them, so the scores are that sweep's, bit for bit.
void reach_scores(const Cfg& cfg, BlockId from, unsigned k,
                  ReachScratch& scratch, std::vector<ReachScore>& out);

}  // namespace apcc::cfg
