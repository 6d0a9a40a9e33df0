#include "cfg/analysis.hpp"

#include <algorithm>
#include <climits>
#include <deque>
#include <map>
#include <set>

namespace apcc::cfg {

std::vector<BlockId> reverse_post_order(const Cfg& cfg) {
  const std::size_t n = cfg.block_count();
  std::vector<BlockId> order;
  if (n == 0) return order;
  std::vector<bool> visited(n, false);

  // Iterative DFS with an explicit stack of (block, its next out-edge).
  std::vector<BlockId> post;
  post.reserve(n);
  auto dfs = [&](BlockId root) {
    if (visited[root]) return;
    std::vector<std::pair<BlockId, Cfg::EdgeList::iterator>> stack;
    stack.emplace_back(root, cfg.out_edges(root).begin());
    visited[root] = true;
    while (!stack.empty()) {
      auto& [b, next] = stack.back();
      if (next != cfg.out_edges(b).end()) {
        const BlockId succ = cfg.edge(*next).to;
        ++next;
        if (!visited[succ]) {
          visited[succ] = true;
          stack.emplace_back(succ, cfg.out_edges(succ).begin());
        }
      } else {
        post.push_back(b);
        stack.pop_back();
      }
    }
  };

  if (cfg.entry() != kInvalidBlock) dfs(cfg.entry());
  order.assign(post.rbegin(), post.rend());
  // Unreachable blocks, in id order, so callers see every block once.
  for (BlockId b = 0; b < n; ++b) {
    if (!visited[b]) order.push_back(b);
  }
  return order;
}

std::vector<BlockId> immediate_dominators(const Cfg& cfg) {
  const std::size_t n = cfg.block_count();
  std::vector<BlockId> idom(n, kInvalidBlock);
  if (n == 0 || cfg.entry() == kInvalidBlock) return idom;

  const std::vector<BlockId> rpo = reverse_post_order(cfg);
  std::vector<std::size_t> rpo_index(n, SIZE_MAX);
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    rpo_index[rpo[i]] = i;
  }

  const BlockId entry = cfg.entry();
  idom[entry] = entry;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const BlockId b : rpo) {
      if (b == entry) continue;
      BlockId new_idom = kInvalidBlock;
      for (const EdgeId e : cfg.in_edges(b)) {
        const BlockId p = cfg.edge(e).from;
        if (idom[p] == kInvalidBlock) continue;  // not yet processed
        new_idom = (new_idom == kInvalidBlock) ? p : intersect(p, new_idom);
      }
      if (new_idom != kInvalidBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

bool dominates(const std::vector<BlockId>& idom, BlockId a, BlockId b) {
  APCC_CHECK(a < idom.size() && b < idom.size(), "block id out of range");
  if (idom[b] == kInvalidBlock) return false;  // b unreachable
  BlockId x = b;
  while (true) {
    if (x == a) return true;
    if (idom[x] == x) return false;  // reached the entry
    x = idom[x];
    if (x == kInvalidBlock) return false;
  }
}

bool NaturalLoop::contains(BlockId b) const {
  return std::binary_search(body.begin(), body.end(), b);
}

std::vector<NaturalLoop> natural_loops(const Cfg& cfg) {
  const auto idom = immediate_dominators(cfg);
  std::map<BlockId, std::set<BlockId>> bodies;  // header -> body
  for (const auto& e : cfg.edges()) {
    if (!dominates(idom, e.to, e.from)) continue;  // not a back edge
    auto& body = bodies[e.to];
    body.insert(e.to);
    // Walk predecessors backwards from the latch, staying off the header.
    std::vector<BlockId> work;
    if (body.insert(e.from).second) work.push_back(e.from);
    while (!work.empty()) {
      const BlockId b = work.back();
      work.pop_back();
      if (b == e.to) continue;
      for (const EdgeId in : cfg.in_edges(b)) {
        const BlockId p = cfg.edge(in).from;
        if (body.insert(p).second) work.push_back(p);
      }
    }
  }
  std::vector<NaturalLoop> loops;
  loops.reserve(bodies.size());
  for (auto& [header, body] : bodies) {
    NaturalLoop loop;
    loop.header = header;
    loop.body.assign(body.begin(), body.end());
    loops.push_back(std::move(loop));
  }
  return loops;
}

std::vector<unsigned> loop_depths(const Cfg& cfg) {
  std::vector<unsigned> depth(cfg.block_count(), 0);
  for (const auto& loop : natural_loops(cfg)) {
    for (const BlockId b : loop.body) {
      ++depth[b];
    }
  }
  return depth;
}

namespace {

/// Shared BFS for the exit-of-`from` metric: every block's minimum edge
/// count from the exit of `from`, bounded to depth `k` (UINT_MAX for
/// unbounded). Direct successors seed at distance 1, so `from` itself
/// only gets a distance if a cycle returns to it -- the shortest cycle
/// length. dist[b] == UINT_MAX means "not reachable within k".
std::vector<unsigned> exit_distances(const Cfg& cfg, BlockId from,
                                     unsigned k) {
  std::vector<unsigned> dist(cfg.block_count(), UINT_MAX);
  if (k == 0) return dist;
  std::deque<BlockId> queue;
  for (const EdgeId e : cfg.out_edges(from)) {
    const BlockId s = cfg.edge(e).to;
    if (dist[s] == UINT_MAX) {
      dist[s] = 1;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const BlockId b = queue.front();
    queue.pop_front();
    if (dist[b] >= k) continue;
    for (const EdgeId e : cfg.out_edges(b)) {
      const BlockId s = cfg.edge(e).to;
      if (dist[s] == UINT_MAX) {
        dist[s] = dist[b] + 1;
        queue.push_back(s);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<BlockId> frontier_within(const Cfg& cfg, BlockId from,
                                     unsigned k) {
  APCC_CHECK(from < cfg.block_count(), "block id out of range");
  std::vector<BlockId> result;
  if (k == 0) return result;
  // BFS bounded to depth k; `dist` records membership directly, so the
  // id-ordered sweep below yields the sorted frontier. `from` enters the
  // result only if re-reached through a cycle of length <= k.
  const std::vector<unsigned> dist = exit_distances(cfg, from, k);
  for (BlockId b = 0; b < cfg.block_count(); ++b) {
    if (dist[b] != UINT_MAX) result.push_back(b);
  }
  return result;
}

void frontier_distances(const Cfg& cfg, BlockId from, unsigned k,
                        std::vector<unsigned>& dist,
                        std::vector<FrontierEntry>& out) {
  APCC_CHECK(from < cfg.block_count(), "block id out of range");
  APCC_CHECK(dist.size() == cfg.block_count(), "scratch size mismatch");
  out.clear();
  if (k == 0) return;
  // Bounded BFS whose result list is also its queue: entries are
  // appended in nondecreasing distance, and `head` walks them. Only the
  // visited entries of `dist` are written, and they are restored below,
  // so the cost is O(frontier + its out-edges), not O(B).
  const auto visit = [&](BlockId b, unsigned d) {
    if (dist[b] != UINT_MAX) return;
    dist[b] = d;
    out.push_back(FrontierEntry{b, d});
  };
  for (const EdgeId e : cfg.out_edges(from)) visit(cfg.edge(e).to, 1);
  for (std::size_t head = 0; head < out.size(); ++head) {
    const FrontierEntry cur = out[head];  // visit() may reallocate `out`
    if (cur.distance >= k) continue;
    for (const EdgeId e : cfg.out_edges(cur.block)) {
      visit(cfg.edge(e).to, cur.distance + 1);
    }
  }
  for (const FrontierEntry& entry : out) dist[entry.block] = UINT_MAX;
  std::sort(out.begin(), out.end(),
            [](const FrontierEntry& a, const FrontierEntry& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.block < b.block;
            });
}

std::optional<unsigned> edge_distance(const Cfg& cfg, BlockId from,
                                      BlockId to) {
  APCC_CHECK(from < cfg.block_count() && to < cfg.block_count(),
             "block id out of range");
  // Seeding from the successors (distance 1) makes from == to mean "the
  // shortest cycle through `from`", matching frontier_within's view of
  // self-reachability instead of the old hard-coded 0.
  std::vector<unsigned> dist(cfg.block_count(), UINT_MAX);
  std::deque<BlockId> queue;
  for (const EdgeId e : cfg.out_edges(from)) {
    const BlockId s = cfg.edge(e).to;
    if (dist[s] == UINT_MAX) {
      dist[s] = 1;
      if (s == to) return dist[s];
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const BlockId b = queue.front();
    queue.pop_front();
    for (const EdgeId e : cfg.out_edges(b)) {
      const BlockId s = cfg.edge(e).to;
      if (dist[s] == UINT_MAX) {
        dist[s] = dist[b] + 1;
        if (s == to) return dist[s];
        queue.push_back(s);
      }
    }
  }
  return std::nullopt;
}

void reach_scores(const Cfg& cfg, BlockId from, unsigned k,
                  ReachScratch& scratch, std::vector<ReachScore>& out) {
  APCC_CHECK(from < cfg.block_count(), "block id out of range");
  const std::size_t n = cfg.block_count();
  if (scratch.mass.size() < n) {
    scratch.mass.resize(n, 0.0);
    scratch.next.resize(n, 0.0);
    scratch.score.resize(n, 0.0);
  }
  std::vector<double>& mass = scratch.mass;
  std::vector<double>& next = scratch.next;
  std::vector<double>& score = scratch.score;
  std::vector<BlockId>& live = scratch.live;
  std::vector<BlockId>& touched = scratch.touched;
  out.clear();
  // Markov chain power iteration: mass[t][b] = probability the walk is at
  // b after t steps. score(b) = sum over t in [1,k] of mass[t][b], an
  // expected-visit count within k steps. `live` lists, in ascending id,
  // the blocks whose mass the last round wrote (every other entry is
  // zero), so each `next[to] +=` below runs in the order a sweep over
  // all B blocks would run it. `out` doubles as the list of reached
  // blocks, with the round that first reached each.
  mass[from] = 1.0;
  live.assign(1, from);
  for (unsigned step = 1; step <= k; ++step) {
    touched.clear();
    for (const BlockId b : live) {
      if (mass[b] <= 0.0) continue;
      for (const EdgeId e : cfg.out_edges(b)) {
        const auto& edge = cfg.edge(e);
        touched.push_back(edge.to);
        next[edge.to] += mass[b] * edge.probability;
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const BlockId b : touched) {
      if (next[b] > 0.0) {
        if (score[b] == 0.0) out.push_back(ReachScore{b, 0.0, step});
        score[b] += next[b];
      }
    }
    for (const BlockId b : live) mass[b] = 0.0;
    mass.swap(next);
    live.swap(touched);
  }
  for (const BlockId b : live) mass[b] = 0.0;
  for (ReachScore& rs : out) {
    rs.score = score[rs.block];
    score[rs.block] = 0.0;
  }
  std::sort(out.begin(), out.end(), [](const ReachScore& a,
                                       const ReachScore& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.block < b.block;
  });
}

}  // namespace apcc::cfg
