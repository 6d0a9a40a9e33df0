// reach_scores differential: the sparse walk, which visits only the
// blocks holding mass each round, against the dense power iteration it
// replaced, which sweeps all B blocks every round. The profile predictor
// ranks every exit block by these scores and the test oracle shares the
// predictor, so a ranking change would show nowhere else: each call must
// give the same blocks, the same min_distance and the same score bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "cfg/analysis.hpp"
#include "cfg/paper_graphs.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::cfg {
namespace {

/// The dense loop, O(k x B) per call: every round clears and sweeps
/// every block in ascending id. (It indexes through raw pointers only
/// so that the sanitizer builds, at -O0, run the sweeps in seconds.)
std::vector<ReachScore> dense_reach_scores(const Cfg& cfg, BlockId from,
                                           unsigned k) {
  const std::size_t n = cfg.block_count();
  std::vector<double> mass_array(n, 0.0);
  std::vector<double> next_array(n, 0.0);
  std::vector<double> score_array(n, 0.0);
  std::vector<unsigned> min_dist_array(n, UINT_MAX);
  double* mass = mass_array.data();
  double* next = next_array.data();
  double* score = score_array.data();
  unsigned* min_dist = min_dist_array.data();
  mass[from] = 1.0;
  for (unsigned step = 1; step <= k; ++step) {
    std::fill(next, next + n, 0.0);
    for (BlockId b = 0; b < n; ++b) {
      if (mass[b] <= 0.0) continue;
      for (const EdgeId e : cfg.out_edges(b)) {
        const auto& edge = cfg.edge(e);
        next[edge.to] += mass[b] * edge.probability;
      }
    }
    for (BlockId b = 0; b < n; ++b) {
      if (next[b] > 0.0) {
        score[b] += next[b];
        if (min_dist[b] == UINT_MAX) min_dist[b] = step;
      }
    }
    std::swap(mass, next);
  }
  std::vector<ReachScore> out;
  for (BlockId b = 0; b < n; ++b) {
    if (score[b] > 0.0) {
      out.push_back(ReachScore{b, score[b], min_dist[b]});
    }
  }
  std::sort(out.begin(), out.end(), [](const ReachScore& a,
                                       const ReachScore& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.block < b.block;
  });
  return out;
}

/// The 8 suite kernels, the paper's figure graphs, and the first four
/// of artifact-churn's 2.4k-block programs.
std::vector<Cfg> graphs() {
  std::vector<Cfg> out;
  for (const auto kind : workloads::all_workload_kinds()) {
    out.push_back(workloads::make_workload(kind).cfg);
  }
  out.push_back(figure1_cfg());
  out.push_back(figure2_cfg());
  out.push_back(figure5_cfg());
  for (std::uint64_t seed = 9001; seed <= 9004; ++seed) {
    workloads::RandomProgramOptions churn;
    churn.seed = seed;
    churn.max_depth = 3;
    churn.statements_per_body = 40;
    churn.leaf_functions = 16;
    churn.loop_iters_max = 6;
    out.push_back(workloads::make_random_workload(churn).cfg);
  }
  return out;
}

TEST(ReachScores, SparseWalkMatchesTheDenseLoopBitForBit) {
  // One scratch for every call on every graph: an entry a call leaves
  // dirty shifts a later call's scores, and a short scratch grows.
  ReachScratch scratch;
  std::vector<ReachScore> got;
  std::size_t calls = 0;
  for (const Cfg& g : graphs()) {
    for (const unsigned k : {0u, 1u, 2u, 4u, 8u, 64u}) {
      for (BlockId from = 0; from < g.block_count(); ++from) {
        reach_scores(g, from, k, scratch, got);
        const std::vector<ReachScore> want = dense_reach_scores(g, from, k);
        ++calls;
        ASSERT_EQ(got.size(), want.size())
            << g.block_count() << "-block graph, from " << from << " k "
            << k;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].block, want[i].block)
              << "rank " << i << " from " << from << " k " << k;
          ASSERT_EQ(got[i].min_distance, want[i].min_distance)
              << "block " << want[i].block << " from " << from << " k "
              << k;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
                    std::bit_cast<std::uint64_t>(want[i].score))
              << "block " << want[i].block << " from " << from << " k "
              << k << ": " << got[i].score << " vs " << want[i].score;
        }
      }
    }
  }
  EXPECT_EQ(calls, 59604u);  // (175 + 9,759 blocks) x 6 values of k
  for (const std::vector<double>* column :
       {&scratch.mass, &scratch.next, &scratch.score}) {
    EXPECT_TRUE(std::all_of(column->begin(), column->end(),
                            [](double x) { return x == 0.0; }))
        << "the scratch was not restored";
  }
}

}  // namespace
}  // namespace apcc::cfg
